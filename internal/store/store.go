// Package store is the named graph registry behind prefcoverd's
// /v1/graphs API: it turns the daemon from a stateless transcoder (every
// request re-uploads and re-parses its graph) into a stateful serving
// system where a catalog is pushed once and then referenced by name.
//
// Each entry is content-addressed: Put serializes the graph once through
// the versioned binary codec, and the SHA-256 of those bytes becomes the
// entry's Hash — the ETag clients revalidate against and the key the solve
// cache partitions by, so replacing a graph under the same name
// automatically orphans every cached result computed from the old
// content. The registry is bounded (count and total encoded bytes) by the
// serving layer's one LRU table (internal/lru), where Put, Get and
// RecordSolve count as use and Info, List, Holds and Graphs do not.
//
// With Options.Dir set, entries persist across restarts: Put writes the
// binary encoding to <dir>/<name>.pcg via temp-file + rename (crash-atomic
// on POSIX), Delete and eviction unlink it, and New reloads every *.pcg at
// startup — skipping and logging corrupt files instead of refusing to
// start, because one bad snapshot must not take down serving for every
// other catalog.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"prefcover/internal/faults"
	"prefcover/internal/graph"
	"prefcover/internal/lru"
)

// MaxNameLen bounds registry names; long names bloat metrics labels and
// file paths without serving any naming need.
const MaxNameLen = 128

// ValidateName reports whether name is acceptable as a registry key. The
// grammar is deliberately narrow — it must be safe verbatim inside a URL
// path segment, a Prometheus label value, and a filename on every
// platform: 1..MaxNameLen characters from [a-zA-Z0-9._-], starting with a
// letter or digit (so names cannot masquerade as dotfiles or flags).
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty graph name")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("store: graph name longer than %d bytes", MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("store: graph name must start with a letter or digit")
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return fmt.Errorf("store: graph name contains %q (allowed: letters, digits, '.', '_', '-')", c)
		}
	}
	return nil
}

// Options configures a Registry.
type Options struct {
	// MaxGraphs bounds how many graphs are retained (0 = DefaultMaxGraphs).
	MaxGraphs int
	// MaxBytes bounds the sum of encoded graph sizes (0 = DefaultMaxBytes).
	MaxBytes int64
	// Dir, when non-empty, enables disk persistence: snapshots live as
	// <Dir>/<name>.pcg and are reloaded by New.
	Dir string
	// Logger receives load-skip and persistence warnings; nil discards.
	Logger *slog.Logger
	// OnInvalidate, when non-nil, fires whenever a name drops content that
	// no remaining name holds — on Delete, on eviction, and on Put over an
	// existing name with different content. Two names with identical
	// content share one hash, so dropping one of them fires nothing. The
	// solve cache hangs its invalidation here.
	OnInvalidate func(name, hash string)
	// Faults, when non-nil, injects failures into the disk persistence
	// path (prefcoverd -fault-spec-disk): snapshot writes can error or
	// truncate on a seeded schedule. No-op unless Dir is set.
	Faults *faults.Injector
}

// Default bounds: generous for a serving box, small enough that a runaway
// uploader cannot OOM the process.
const (
	DefaultMaxGraphs = 64
	DefaultMaxBytes  = 4 << 30
)

// Entry is one registered graph. Immutable after insertion; replacing a
// name installs a fresh Entry.
type Entry struct {
	Name string
	// Graph is the parsed, ready-to-solve graph.
	Graph *graph.Graph
	// Hash is the lowercase hex SHA-256 of the canonical binary encoding —
	// the version identity served as ETag and used as the solve-cache key.
	Hash string
	// Bytes is the size of the binary encoding (the LRU budget unit).
	Bytes int64
	// Created is when this content was installed under this name.
	Created time.Time

	// solves counts solver runs served from this entry (atomic not needed:
	// guarded by the registry mutex via RecordSolve).
	solves int64
}

// Info is the snapshot of an Entry served by List and /v1/graphs.
type Info struct {
	Name    string    `json:"name"`
	Hash    string    `json:"hash"`
	Nodes   int       `json:"nodes"`
	Edges   int       `json:"edges"`
	Bytes   int64     `json:"bytes"`
	Created time.Time `json:"created"`
	Solves  int64     `json:"solves"`
}

// Registry is the bounded, optionally persistent name → graph map.
type Registry struct {
	opts Options

	mu      sync.Mutex
	entries *lru.Table[string, *Entry]
}

// New returns a Registry and, when Options.Dir is set, reloads every
// persisted snapshot in it (creating the directory if needed). Corrupt or
// unreadable snapshots are skipped with a warning — startup only fails if
// the directory itself cannot be created or listed.
func New(opts Options) (*Registry, error) {
	if opts.MaxGraphs <= 0 {
		opts.MaxGraphs = DefaultMaxGraphs
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	r := &Registry{
		opts:    opts,
		entries: lru.New[string](opts.MaxGraphs, opts.MaxBytes, func(e *Entry) int64 { return e.Bytes }),
	}
	if opts.Dir != "" {
		if err := r.loadDir(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// encode serializes g through the binary codec while hashing, returning
// the encoded bytes (for persistence; nil when sink is nil means the
// caller only wanted hash+size), the content hash, and the size.
func encode(g *graph.Graph, sink io.Writer) (hash string, size int64, err error) {
	h := sha256.New()
	cw := &countWriter{}
	w := io.MultiWriter(h, cw)
	if sink != nil {
		w = io.MultiWriter(h, cw, sink)
	}
	if err := graph.WriteBinary(w, g); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// Put installs g under name, replacing any previous content. It returns
// the new entry and whether the name already existed. Entries too large
// for the registry's byte budget are rejected outright (see persist).
func (r *Registry) Put(name string, g *graph.Graph) (*Entry, bool, error) {
	if err := ValidateName(name); err != nil {
		return nil, false, err
	}
	hash, size, err := r.persist(name, g)
	if err != nil {
		return nil, false, err
	}
	e := &Entry{Name: name, Graph: g, Hash: hash, Bytes: size, Created: time.Now()}
	return e, r.install(e), nil
}

// install stores e under its name and reports whether it replaced an
// entry. If some name holds e's content, e takes that name's graph value,
// and with it what the solver derived from it. Evicted entries lose their
// snapshots, and each displaced entry whose content no remaining name
// holds fires OnInvalidate.
func (r *Registry) install(e *Entry) (replaced bool) {
	r.mu.Lock()
	if held := r.holderLocked(e.Hash); held != nil {
		e.Graph = held.Graph
	}
	prev, replaced := r.entries.Peek(e.Name)
	var evicted []*Entry
	for _, ev := range r.entries.Put(e.Name, e) {
		evicted = append(evicted, ev.Value)
	}
	dropped := evicted
	if replaced {
		dropped = append([]*Entry{prev}, evicted...)
	}
	orphans := r.orphansLocked(dropped...)
	r.mu.Unlock()

	r.drop(evicted, orphans)
	return replaced
}

// Get returns the entry for name and bumps its recency.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.Get(name)
}

// Delete removes name, unlinks its snapshot, and fires invalidation.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	e, ok := r.entries.Remove(name)
	var orphans []*Entry
	if ok {
		orphans = r.orphansLocked(e)
	}
	r.mu.Unlock()
	if ok {
		r.drop([]*Entry{e}, orphans)
	}
	return ok
}

// Holds reports whether some registered name holds content with this
// hash.
func (r *Registry) Holds(hash string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.holderLocked(hash) != nil
}

// holderLocked returns an entry holding content with this hash, or nil.
func (r *Registry) holderLocked(hash string) (held *Entry) {
	r.entries.Each(func(_ string, e *Entry) bool {
		if e.Hash == hash {
			held = e
		}
		return held == nil
	})
	return held
}

// Graphs returns each distinct graph value the registry holds, once. It
// counts as no use.
func (r *Registry) Graphs() (out []*graph.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries.Each(func(_ string, e *Entry) bool {
		if !slices.Contains(out, e.Graph) {
			out = append(out, e.Graph)
		}
		return true
	})
	return out
}

// RecordSolve counts one solver run against name (per-graph statistics on
// /metrics) and bumps recency — a graph being solved is a graph in use.
func (r *Registry) RecordSolve(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries.Get(name); ok {
		e.solves++
	}
}

// infoLocked snapshots one entry. Callers hold r.mu (solves is guarded by
// it).
func infoLocked(e *Entry) Info {
	return Info{
		Name: e.Name, Hash: e.Hash,
		Nodes: e.Graph.NumNodes(), Edges: e.Graph.NumEdges(),
		Bytes: e.Bytes, Created: e.Created, Solves: e.solves,
	}
}

// Info snapshots the named entry's statistics.
func (r *Registry) Info(name string) (Info, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries.Peek(name)
	if !ok {
		return Info{}, false
	}
	return infoLocked(e), true
}

// List snapshots all entries, sorted by name for deterministic output.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, r.entries.Len())
	r.entries.Each(func(_ string, e *Entry) bool {
		out = append(out, infoLocked(e))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.Len()
}

// TotalBytes returns the summed encoded size of all entries.
func (r *Registry) TotalBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.Bytes()
}

// orphansLocked returns the dropped entries whose content no remaining
// entry holds. Callers hold r.mu and have already removed dropped.
func (r *Registry) orphansLocked(dropped ...*Entry) []*Entry {
	return slices.DeleteFunc(slices.Clone(dropped), func(d *Entry) bool { return r.holderLocked(d.Hash) != nil })
}

// drop finishes removals outside the lock: it unlinks each removed
// entry's snapshot and fires OnInvalidate for each orphan.
func (r *Registry) drop(removed, orphans []*Entry) {
	for _, v := range removed {
		r.removeFile(v.Name)
	}
	if r.opts.OnInvalidate == nil {
		return
	}
	for _, o := range orphans {
		r.opts.OnInvalidate(o.Name, o.Hash)
	}
}

// logWarn emits a persistence warning; a nil logger discards, matching the
// server convention.
func (r *Registry) logWarn(msg string, args ...any) {
	if r.opts.Logger != nil {
		r.opts.Logger.Warn(msg, args...)
	}
}
