package store

import (
	"bytes"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
)

func testGraph(t *testing.T, seed int64, n int) *graph.Graph {
	t.Helper()
	return graphtest.Random(rand.New(rand.NewSource(seed)), n, 4, graph.Independent)
}

func TestValidateName(t *testing.T) {
	ok := []string{"a", "catalog", "yc-2015.v2", "A_b-c.d", strings.Repeat("x", MaxNameLen)}
	for _, name := range ok {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{"", ".hidden", "-flag", "_x", "a/b", "a\\b", "a b", "a\nb", "..", "a\x00b",
		strings.Repeat("x", MaxNameLen+1), "über"}
	for _, name := range bad {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", name)
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 1, 30)
	e, replaced, err := r.Put("cat", g)
	if err != nil || replaced {
		t.Fatalf("Put = %v replaced=%v", err, replaced)
	}
	if e.Hash == "" || len(e.Hash) != 64 || e.Bytes <= 0 {
		t.Fatalf("entry = %+v", e)
	}
	got, ok := r.Get("cat")
	if !ok || got.Hash != e.Hash || got.Graph != g {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) hit")
	}
	if !r.Delete("cat") || r.Delete("cat") {
		t.Fatal("Delete semantics wrong")
	}
	if _, ok := r.Get("cat"); ok {
		t.Fatal("deleted entry still present")
	}
}

func TestHashIsContentAddressed(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	gA := testGraph(t, 7, 25)
	gB := testGraph(t, 8, 25)
	eA, _, _ := r.Put("a", gA)
	eA2, _, _ := r.Put("a2", testGraph(t, 7, 25)) // same seed → same content
	eB, _, _ := r.Put("b", gB)
	if eA.Hash != eA2.Hash {
		t.Errorf("identical graphs hash differently: %s vs %s", eA.Hash, eA2.Hash)
	}
	if eA.Hash == eB.Hash {
		t.Errorf("different graphs collide: %s", eA.Hash)
	}
}

func TestReplaceFiresInvalidation(t *testing.T) {
	var events []string
	r, err := New(Options{OnInvalidate: func(name, hash string) {
		events = append(events, name+":"+hash[:8])
	}})
	if err != nil {
		t.Fatal(err)
	}
	e1, _, _ := r.Put("g", testGraph(t, 1, 20))
	// Same content again: no invalidation (the hash is still current).
	r.Put("g", testGraph(t, 1, 20))
	if len(events) != 0 {
		t.Fatalf("replace with identical content invalidated: %v", events)
	}
	e2, replaced, _ := r.Put("g", testGraph(t, 2, 20))
	if !replaced || len(events) != 1 || events[0] != "g:"+e1.Hash[:8] {
		t.Fatalf("replace invalidation = %v (replaced=%v)", events, replaced)
	}
	r.Delete("g")
	if len(events) != 2 || events[1] != "g:"+e2.Hash[:8] {
		t.Fatalf("delete invalidation = %v", events)
	}
}

// TestSharedContentInvalidatesWhenOrphaned: two names with identical
// content share one hash, so dropping either one alone must not
// invalidate the other's cached solves; the hook fires once the last
// name holding the content drops it, by delete, replace or eviction.
func TestSharedContentInvalidatesWhenOrphaned(t *testing.T) {
	var events []string
	r, err := New(Options{MaxGraphs: 2, OnInvalidate: func(name, hash string) {
		events = append(events, name+":"+hash[:8])
	}})
	if err != nil {
		t.Fatal(err)
	}
	shared, _, _ := r.Put("a", testGraph(t, 1, 20))
	r.Put("b", testGraph(t, 1, 20))
	r.Delete("a")
	r.Put("a", testGraph(t, 1, 20))
	r.Put("a", testGraph(t, 2, 20)) // replace: b still holds the content
	if len(events) != 0 || !r.Holds(shared.Hash) {
		t.Fatalf("invalidated %v while b holds the content (held=%v)", events, r.Holds(shared.Hash))
	}
	r.Get("a")
	r.Put("c", testGraph(t, 3, 20)) // evicts b, the last holder
	if len(events) != 1 || events[0] != "b:"+shared.Hash[:8] || r.Holds(shared.Hash) {
		t.Fatalf("events after evicting the last holder = %v", events)
	}
}

func TestLRUEvictionByCount(t *testing.T) {
	var evicted []string
	r, err := New(Options{MaxGraphs: 2, OnInvalidate: func(name, _ string) {
		evicted = append(evicted, name)
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", testGraph(t, 1, 20))
	r.Put("b", testGraph(t, 2, 20))
	r.Get("a") // b is now least recently used
	r.Put("c", testGraph(t, 3, 20))
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := r.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := r.Get("c"); !ok {
		t.Error("just-inserted entry evicted")
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	g := testGraph(t, 1, 40)
	_, size, err := encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []string
	r, err := New(Options{MaxBytes: 2*size + size/2, OnInvalidate: func(name, _ string) {
		evicted = append(evicted, name)
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", testGraph(t, 1, 40))
	r.Put("b", testGraph(t, 1, 40))
	if len(evicted) != 0 {
		t.Fatalf("premature eviction: %v", evicted)
	}
	r.Put("c", testGraph(t, 1, 40))
	// All three names hold the same content, so evicting a orphans none of
	// it: the entry goes and the hook stays silent.
	if _, ok := r.Get("a"); ok || r.Len() != 2 || len(evicted) != 0 {
		t.Fatalf("a still registered = %v, %d entries, invalidated %v; want a evicted and nothing invalidated", ok, r.Len(), evicted)
	}
	if got := r.TotalBytes(); got > 2*size+size/2 {
		t.Errorf("TotalBytes = %d exceeds budget", got)
	}
}

func TestOversizedGraphRejected(t *testing.T) {
	r, err := New(Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Put("big", testGraph(t, 1, 50)); err == nil {
		t.Fatal("oversized Put accepted")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after rejected Put", r.Len())
	}
}

func TestListAndSolveStats(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("b", testGraph(t, 2, 20))
	r.Put("a", testGraph(t, 1, 20))
	r.RecordSolve("a")
	r.RecordSolve("a")
	r.RecordSolve("missing") // must not panic
	infos := r.List()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Solves != 2 || infos[1].Solves != 0 {
		t.Errorf("solve stats = %d/%d, want 2/0", infos[0].Solves, infos[1].Solves)
	}
	if infos[0].Nodes != 20 {
		t.Errorf("Nodes = %d", infos[0].Nodes)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]*graph.Graph{
		"alpha": testGraph(t, 1, 30),
		"beta":  testGraph(t, 2, 45),
	}
	hashes := map[string]string{}
	for name, g := range gs {
		e, _, err := r.Put(name, g)
		if err != nil {
			t.Fatal(err)
		}
		hashes[name] = e.Hash
	}
	// The snapshots exist and are the binary codec.
	for name := range gs {
		path := filepath.Join(dir, name+snapshotExt)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("snapshot missing: %v", err)
		}
		if _, err := graph.ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatalf("snapshot %s not a valid graph: %v", name, err)
		}
	}

	// A fresh registry over the same dir reloads everything with identical
	// hashes and topology.
	r2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != len(gs) {
		t.Fatalf("reloaded Len = %d, want %d", r2.Len(), len(gs))
	}
	for name, g := range gs {
		e, ok := r2.Get(name)
		if !ok {
			t.Fatalf("reloaded registry missing %q", name)
		}
		if e.Hash != hashes[name] {
			t.Errorf("%s: hash changed across restart: %s vs %s", name, e.Hash, hashes[name])
		}
		if e.Graph.NumNodes() != g.NumNodes() || e.Graph.NumEdges() != g.NumEdges() {
			t.Errorf("%s: shape changed across restart", name)
		}
	}

	// Delete unlinks the snapshot.
	r2.Delete("alpha")
	if _, err := os.Stat(filepath.Join(dir, "alpha"+snapshotExt)); !os.IsNotExist(err) {
		t.Errorf("deleted snapshot still on disk (err=%v)", err)
	}
}

func TestCorruptSnapshotsSkippedOnLoad(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := r.Put("good", testGraph(t, 3, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Three flavors of damage: pure garbage, a truncated valid snapshot,
	// and a leftover temp file from a crashed write.
	if err := os.WriteFile(filepath.Join(dir, "garbage"+snapshotExt), []byte("not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(filepath.Join(dir, "good"+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "truncated"+snapshotExt), goodBytes[:len(goodBytes)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "crashed"+snapshotExt+".tmp"), goodBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	r2, err := New(Options{Dir: dir, Logger: logger})
	if err != nil {
		t.Fatalf("startup failed on corrupt dir: %v", err)
	}
	if r2.Len() != 1 {
		t.Fatalf("reloaded Len = %d, want 1 (only the good snapshot)", r2.Len())
	}
	got, ok := r2.Get("good")
	if !ok || got.Hash != e.Hash {
		t.Fatalf("good snapshot lost: ok=%v", ok)
	}
	if !strings.Contains(logBuf.String(), "skipping corrupt snapshot") {
		t.Errorf("corrupt skips not logged:\n%s", logBuf.String())
	}
}

func TestEvictionRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{Dir: dir, MaxGraphs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", testGraph(t, 1, 20))
	r.Put("b", testGraph(t, 2, 20))
	if _, err := os.Stat(filepath.Join(dir, "a"+snapshotExt)); !os.IsNotExist(err) {
		t.Errorf("evicted snapshot still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b"+snapshotExt)); err != nil {
		t.Errorf("surviving snapshot missing: %v", err)
	}
}
