package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The TSV codec stores one record per line:
//
//	# comments and blank lines are ignored
//	node <TAB> <label> <TAB> <weight>
//	edge <TAB> <srcLabel> <TAB> <dstLabel> <TAB> <weight>
//
// Node lines must precede the edges that reference them. The format is
// deliberately trivial so exported graphs can be inspected and diffed.

// WriteTSV serializes g in the TSV format.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# prefcover graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if _, err := fmt.Fprintf(bw, "node\t%s\t%s\n", g.Label(v), formatW(g.NodeWeight(v))); err != nil {
			return err
		}
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			if _, err := fmt.Fprintf(bw, "edge\t%s\t%s\t%s\n", g.Label(v), g.Label(u), formatW(ws[i])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func formatW(w float64) string { return strconv.FormatFloat(w, 'g', -1, 64) }

// ReadTSV parses the TSV format. Build options allow duplicate handling and
// weight normalization at load time.
func ReadTSV(r io.Reader, opts BuildOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := NewBuilder(0, 0)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: tsv line %d: want 3 fields for node, got %d", line, len(fields))
			}
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: tsv line %d: bad node weight: %v", line, err)
			}
			b.AddLabeledNode(fields[1], w)
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: tsv line %d: want 4 fields for edge, got %d", line, len(fields))
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: tsv line %d: bad edge weight: %v", line, err)
			}
			src, ok := b.lookup(fields[1])
			if !ok {
				return nil, fmt.Errorf("graph: tsv line %d: edge references undeclared node %q", line, fields[1])
			}
			dst, ok := b.lookup(fields[2])
			if !ok {
				return nil, fmt.Errorf("graph: tsv line %d: edge references undeclared node %q", line, fields[2])
			}
			b.AddEdge(src, dst, w)
		default:
			return nil, fmt.Errorf("graph: tsv line %d: unknown record type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(opts)
}

func (b *Builder) lookup(label string) (int32, bool) {
	if b.byName == nil {
		return 0, false
	}
	id, ok := b.byName[label]
	return id, ok
}

// jsonGraph is the JSON document shape.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Label  string  `json:"label,omitempty"`
	Weight float64 `json:"weight"`
}

type jsonEdge struct {
	Src    int32   `json:"src"`
	Dst    int32   `json:"dst"`
	Weight float64 `json:"weight"`
}

// WriteJSON serializes g as a single JSON document. Edges reference nodes by
// dense index, keeping documents compact even for unlabeled graphs.
func WriteJSON(w io.Writer, g *Graph) error {
	doc := jsonGraph{
		Nodes: make([]jsonNode, g.NumNodes()),
		Edges: make([]jsonEdge, 0, g.NumEdges()),
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		node := jsonNode{Weight: g.NodeWeight(v)}
		if g.Labeled() {
			node.Label = g.Label(v)
		}
		doc.Nodes[v] = node
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			doc.Edges = append(doc.Edges, jsonEdge{Src: v, Dst: u, Weight: ws[i]})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
