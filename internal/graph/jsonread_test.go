package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceReadJSON is the encoding/json reader ReadJSON replaced. It
// defines the contract: ReadJSON must accept exactly the documents this
// accepts and build the same graphs from them.
func referenceReadJSON(r io.Reader, opts BuildOptions) (*Graph, error) {
	var doc jsonGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: decoding json: %w", err)
	}
	b := NewBuilder(len(doc.Nodes), len(doc.Edges))
	labeled := len(doc.Nodes) > 0 && doc.Nodes[0].Label != ""
	for i, nd := range doc.Nodes {
		if labeled {
			if nd.Label == "" {
				return nil, fmt.Errorf("graph: json node %d missing label in labeled graph", i)
			}
			b.AddLabeledNode(nd.Label, nd.Weight)
		} else {
			b.AddNode(nd.Weight)
		}
	}
	for i, e := range doc.Edges {
		if e.Src < 0 || int(e.Src) >= len(doc.Nodes) || e.Dst < 0 || int(e.Dst) >= len(doc.Nodes) {
			return nil, fmt.Errorf("graph: json edge %d references unknown node", i)
		}
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return b.Build(opts)
}

// graphDiff describes the first difference between two graphs, comparing
// labels, weights bit for bit, and both CSRs; "" means identical.
func graphDiff(want, got *Graph) string {
	if len(want.labels) != len(got.labels) {
		return fmt.Sprintf("labeled: %d labels, want %d", len(got.labels), len(want.labels))
	}
	for i := range want.labels {
		if want.labels[i] != got.labels[i] {
			return fmt.Sprintf("label %d: %q, want %q", i, got.labels[i], want.labels[i])
		}
	}
	for name, p := range map[string][2][]float64{
		"node weights": {want.nodeW, got.nodeW},
		"out weights":  {want.outW, got.outW},
		"in weights":   {want.inW, got.inW},
	} {
		if len(p[0]) != len(p[1]) {
			return fmt.Sprintf("%s: %d values, want %d", name, len(p[1]), len(p[0]))
		}
		for i := range p[0] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				return fmt.Sprintf("%s[%d]: %v, want %v", name, i, p[1][i], p[0][i])
			}
		}
	}
	if fmt.Sprint(want.outStart, want.outDst) != fmt.Sprint(got.outStart, got.outDst) {
		return "out-CSR differs"
	}
	if fmt.Sprint(want.inStart, want.inSrc) != fmt.Sprint(got.inStart, got.inSrc) {
		return "in-CSR differs"
	}
	return ""
}

// jsonSeeds are documents at the edges of what encoding/json accepts.
func jsonSeeds() []string {
	lab := NewBuilder(0, 0)
	lab.AddLabeledNode("alpha", 0.5)
	lab.AddLabeledNode("β<&>", 0.3)
	lab.AddLabeledNode("gamma", 0.2)
	lab.AddLabeledEdge("alpha", "β<&>", 0.75)
	lab.AddLabeledEdge("gamma", "alpha", 1.0/3)
	unl := NewBuilder(0, 0)
	unl.AddNode(0.25)
	unl.AddNode(0.75)
	unl.AddEdge(1, 0, 1e-7)
	var seeds []string
	for _, b := range []*Builder{lab, unl} {
		g, err := b.Build(BuildOptions{})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.String())
	}
	const two = `{"nodes":[{"weight":0.5},{"weight":0.5}],"edges":[{"src":0,"dst":1,"weight":0.5}]}`
	return append(seeds,
		two,
		// Keys match case-insensitively, after unescaping.
		`{"NODES":[{"Weight":0.5},{"WEIGHT":0.5}],"Edges":[{"ſrc":0,"DST":1,"weigHt":0.5}]}`,
		`{"nodes":[{"weight":0.5},{"weight":0.5}],"edges":[{"src":0,"dst":1,"weight":0.5}]}`,
		`{"nodes\u0000":[{"weight":1}],"nodes":[{"weight":1}],"edges":[]}`,
		// Unknown fields, nested, anywhere.
		`{"meta":{"a":[1,-2.5e3,{"b":null}],"c":"x\"y"},"nodes":[{"weight":1,"extra":[true,false,{}]}],"edges":[],"z":[]}`,
		// null leaves what it replaces untouched; a null array resets it.
		`{"nodes":[{"weight":0.5},null,{"weight":null,"label":null}],"edges":null}`,
		`{"nodes":[{"label":"a","weight":1},{"label":"b","weight":2}],"nodes":null,"nodes":[{"label":"c","weight":1}]}`,
		// A repeated key decodes into the earlier elements.
		`{"nodes":[{"label":"a","weight":1},{"label":"b","weight":2},{"label":"c","weight":3}],"nodes":[{"label":"x"}],"nodes":[{"weight":5},{},null],`+
			`"edges":[{"src":0,"dst":1,"weight":0.5},{"src":1,"dst":2,"weight":0.25}],"edges":[{"dst":2}],"edges":[{"src":2},{}]}`,
		`{"nodes":[{"label":"a","weight":1},{"label":"b","weight":2}],"nodes":[],"nodes":[{"label":"a"},{}]}`,
		// Edges before nodes, out of order.
		`{"edges":[{"src":1,"dst":0,"weight":0.5},{"src":0,"dst":1,"weight":0.25}],"nodes":[{"weight":0.5},{"weight":0.5}]}`,
		// Endpoint and weight literals at the edge of their types.
		strings.Replace(two, `"dst":1`, `"dst":1e0`, 1),
		strings.Replace(two, `"src":0`, `"src":-0`, 1),
		strings.Replace(two, `"dst":1`, `"dst":2147483648`, 1),
		strings.Replace(two, `"dst":1`, `"dst":-2147483648`, 1),
		strings.Replace(two, `"dst":1`, `"dst":1.0`, 1),
		strings.Replace(two, `"weight":0.5}]}`, `"weight":1e400}]}`, 1),
		strings.Replace(two, `"weight":0.5}]}`, `"weight":1e-400}]}`, 1),
		strings.Replace(two, `"weight":0.5}]}`, `"weight":-0.0E+00}]}`, 1),
		strings.Replace(two, `"weight":0.5}]}`, `"weight":01}]}`, 1),
		strings.Replace(two, `"weight":0.5}]}`, `"weight":"0.5"}]}`, 1),
		// Lone surrogates and invalid UTF-8 decode to U+FFFD.
		`{"nodes":[{"label":"\ud800","weight":0.5},{"label":"\udc00\ud800x","weight":0.5},{"label":"😀","weight":0}]}`,
		"{\"nodes\":[{\"label\":\"\xff\xfe\",\"weight\":0.5},{\"label\":\"\xed\xa0\x80\",\"weight\":0.5},{\"label\":\"\xf0\x9f\x98\",\"weight\":0}]}",
		`{"nodes":[{"label":"\uD800A","weight":0.5},{"label":"\ud800\\u0041","weight":0.5}]}`,
		// Bytes after the first value are not read.
		two+`garbage`,
		two+`{`,
		// Nesting at encoding/json's limit of 10,000 levels, and past it.
		`{"x":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`,"nodes":[{"weight":1}]}`,
		`{"x":`+strings.Repeat("[", 10000)+strings.Repeat("]", 10000)+`,"nodes":[{"weight":1}]}`,
		// Not a graph document.
		"\ufeff"+two, // a leading byte order mark
		``, ` `, `null`, `[]`, `{}`, `{"nodes":5}`, `{"nodes":[5]}`, `{"nodes":{}}`, `{"nodes":[{"weight":true}]}`,
		`{"nodes":[{"weight":1},]}`, `{"nodes":[{"weight":1}],}`, `{"nodes":[{"weight":1}]`, `{"a":"\x"}`, "{\"a\":\"\x01\"}",
	)
}

// chunkReader returns at most n bytes per Read, so tokens straddle the
// reader's refills at every offset.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// checkReadJSON holds ReadJSON to referenceReadJSON on one document, read
// whole, in small chunks, and with the end of input reported alongside
// the last bytes.
func checkReadJSON(t *testing.T, doc []byte) {
	want, wantErr := referenceReadJSON(bytes.NewReader(doc), BuildOptions{})
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(doc),
		"1-byte":   chunkReader{bytes.NewReader(doc), 1},
		"3-byte":   chunkReader{bytes.NewReader(doc), 3},
		"7-byte":   chunkReader{bytes.NewReader(doc), 7},
		"eof-data": iotest.DataErrReader(bytes.NewReader(doc)),
	} {
		got, err := ReadJSON(r, BuildOptions{})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: ReadJSON error %v, reference error %v", name, err, wantErr)
		}
		if err == nil {
			if diff := graphDiff(want, got); diff != "" {
				t.Fatalf("%s: %s", name, diff)
			}
		}
	}
}

// FuzzReadJSON is the differential target: the hand-written reader and
// the encoding/json reference give the same verdict on every input, and
// identical graphs on every input they accept. Plain go test runs it on
// the seed documents.
func FuzzReadJSON(f *testing.F) {
	for _, doc := range jsonSeeds() {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) { checkReadJSON(t, doc) })
}

// A read error is wrapped, so callers can match it with errors.Is or
// errors.As.
func TestReadJSONWrapsReadErrors(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"nodes":[{"weight":`), iotest.ErrReader(boom))
	if _, err := ReadJSON(r, BuildOptions{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v does not wrap the read error", err)
	}
}
