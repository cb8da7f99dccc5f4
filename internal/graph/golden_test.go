package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	. "prefcover/internal/graph"
)

// The SHA-256 of a graph's binary encoding is its registry content hash,
// its ETag, its solve-cache key and the name of its persisted snapshot.
// These goldens pin the bytes WriteBinary produces, so a change to Build,
// the JSON reader or the codec that moves a single byte fails here.
const (
	goldenLabeledHash   = "f16925dee781a18fed238546cc243075e9674fe62a59f0d75fdfa3477daa4c0f"
	goldenUnlabeledHash = "812d5b32bd7ac833ed1971e452cbc791d106f2f0ca44d39b2ca08f205bb88050"
	goldenJSONHash      = "455114ebdd4251a64a264c0eb82347b6e43e029f627306b7d4fc43aa97e9088e"
)

// goldenGraph builds a fixed 97-node graph whose edges are added in
// descending source order, so Build's sort and CSR layout decide the bytes.
func goldenGraph(t *testing.T, labeled bool) *Graph {
	t.Helper()
	const n = 97
	b := NewBuilder(n, 3*n)
	for v := 0; v < n; v++ {
		w := float64(v%11+1) / 66.5
		if labeled {
			b.AddLabeledNode("sku-"+strconv.Itoa(v)+"-é", w)
		} else {
			b.AddNode(w)
		}
	}
	for v := int32(n - 1); v >= 0; v-- {
		for j, mul := range []int32{7, 13, 29} {
			u := (v*mul + int32(j) + 3) % n
			if u == v {
				continue
			}
			b.AddEdge(v, u, float64((v+u)%17+1)/19)
		}
	}
	g, err := b.Build(BuildOptions{Duplicates: DupKeepMax})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// goldenJSON is a document with edges before nodes and out of order.
const goldenJSON = `{"edges":[{"src":3,"dst":0,"weight":0.25},{"src":0,"dst":2,"weight":0.5},
{"src":2,"dst":1,"weight":1e-3},{"src":0,"dst":1,"weight":0.125},{"src":1,"dst":3,"weight":0.75}],
"nodes":[{"label":"d","weight":0.1},{"label":"c","weight":0.2},{"label":"b","weight":0.3},{"label":"a","weight":0.4}]}`

func binaryHash(t *testing.T, g *Graph) string {
	t.Helper()
	h := sha256.New()
	if err := WriteBinary(h, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBinaryGolden(t *testing.T) {
	fromJSON, err := ReadJSON(strings.NewReader(goldenJSON), BuildOptions{})
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"labeled", goldenGraph(t, true), goldenLabeledHash},
		{"unlabeled", goldenGraph(t, false), goldenUnlabeledHash},
		{"json", fromJSON, goldenJSONHash},
	} {
		if got := binaryHash(t, tc.g); got != tc.want {
			t.Errorf("%s: binary hash %s, want %s", tc.name, got, tc.want)
		}
		// The encoding must also survive a round trip byte for byte.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tc.g); err != nil {
			t.Fatalf("%s: WriteBinary: %v", tc.name, err)
		}
		back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", tc.name, err)
		}
		if got := binaryHash(t, back); got != tc.want {
			t.Errorf("%s: hash after round trip %s, want %s", tc.name, got, tc.want)
		}
	}
}
