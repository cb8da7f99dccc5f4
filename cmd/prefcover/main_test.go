package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefcover"
)

func TestPeekReader(t *testing.T) {
	br, b, err := peekFirst(strings.NewReader("hello"))
	if err != nil || b != 'h' {
		t.Fatalf("peek = %c, %v", b, err)
	}
	all, err := io.ReadAll(br)
	if err != nil || string(all) != "hello" {
		t.Fatalf("read after peek = %q, %v", all, err)
	}
}

func TestPeekReaderEmpty(t *testing.T) {
	if _, _, err := peekFirst(strings.NewReader("")); !errors.Is(err, io.EOF) {
		t.Fatalf("peek on an empty stream = %v, want io.EOF", err)
	}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadClickstreamAutoDetect(t *testing.T) {
	tsv := writeTemp(t, "c.tsv", "s1\ta\tb,c\ns2\tb\t\n")
	jsonl := writeTemp(t, "c.jsonl", `{"id":"s1","purchase":"a","clicks":["b"]}`+"\n")
	for _, tc := range []struct {
		path string
		want int
	}{{tsv, 2}, {jsonl, 1}} {
		store, err := readClickstream(tc.path, "auto")
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if store.Len() != tc.want {
			t.Errorf("%s: %d sessions, want %d", tc.path, store.Len(), tc.want)
		}
	}
	if _, err := readClickstream(tsv, "bogus"); err == nil {
		t.Error("unknown format should fail")
	}
	if _, err := readClickstream(filepath.Join(t.TempDir(), "missing"), "auto"); err == nil {
		t.Error("missing file should fail")
	}
}

func sampleGraph(t *testing.T) *prefcover.Graph {
	t.Helper()
	b := prefcover.NewBuilder(0, 0)
	b.AddLabeledNode("x", 0.7)
	b.AddLabeledNode("y", 0.3)
	b.AddLabeledEdge("x", "y", 0.5)
	g, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReadGraphAutoDetect(t *testing.T) {
	g := sampleGraph(t)
	dir := t.TempDir()
	var tsv, js, bin bytes.Buffer
	if err := prefcover.WriteGraphTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	if err := prefcover.WriteGraphJSON(&js, g); err != nil {
		t.Fatal(err)
	}
	if err := prefcover.WriteGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"g.tsv": tsv.Bytes(), "g.json": js.Bytes(), "g.bin": bin.Bytes(),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := readGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumNodes() != 2 || back.NumEdges() != 1 {
			t.Errorf("%s: shape lost", name)
		}
	}
}

func TestOpenInCreateOut(t *testing.T) {
	f, closeIn, err := openIn("-")
	if err != nil || f != os.Stdin {
		t.Fatalf("openIn(-) = %v, %v", f, err)
	}
	closeIn()
	w, closeOut, err := createOut("")
	if err != nil || w != os.Stdout {
		t.Fatalf("createOut() = %v, %v", w, err)
	}
	if err := closeOut(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.txt")
	w, closeOut, err = createOut(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteString("data"); err != nil {
		t.Fatal(err)
	}
	if err := closeOut(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "data" {
		t.Fatalf("file contents %q, %v", got, err)
	}
}

func TestPct(t *testing.T) {
	if pct(1, 4) != 25 {
		t.Error("pct(1,4)")
	}
	if pct(1, 0) != 0 {
		t.Error("pct by zero")
	}
}

// TestUsageColumns: the usage text lists every command, and every
// command's summary starts at the same column.
func TestUsageColumns(t *testing.T) {
	var b bytes.Buffer
	usage(&b)
	col, listed := -1, 0
	for _, line := range strings.Split(b.String(), "\n") {
		for _, c := range commands {
			if !strings.HasPrefix(line, "  "+c.name+" ") {
				continue
			}
			listed++
			at := strings.Index(line, c.summary)
			if col < 0 {
				col = at
			}
			if at != col {
				t.Errorf("%s summary starts at column %d, want %d:\n%s", c.name, at, col, b.String())
			}
		}
	}
	if listed != len(commands) {
		t.Errorf("usage lists %d of %d commands:\n%s", listed, len(commands), b.String())
	}
}
