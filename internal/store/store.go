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
// content. The registry is bounded (count and total encoded bytes) with
// least-recently-used eviction, where Get and RecordSolve count as use.
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
	entries map[string]*Entry
	// lruSeq orders use recency: bumped on Put/Get/RecordSolve, smallest
	// value is the eviction victim. A counter avoids list plumbing and
	// keeps eviction O(n) on the rare Put that overflows, not on every Get.
	lruSeq  uint64
	lastUse map[string]uint64
	bytes   int64
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
		entries: make(map[string]*Entry),
		lastUse: make(map[string]uint64),
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
// for the registry's byte budget are rejected outright rather than
// evicting everything else.
func (r *Registry) Put(name string, g *graph.Graph) (*Entry, bool, error) {
	if err := ValidateName(name); err != nil {
		return nil, false, err
	}
	hash, size, err := r.persist(name, g)
	if err != nil {
		return nil, false, err
	}
	if size > r.opts.MaxBytes {
		r.removeFile(name)
		return nil, false, fmt.Errorf("store: graph %q encodes to %d bytes, exceeding the registry budget %d", name, size, r.opts.MaxBytes)
	}
	e := &Entry{Name: name, Graph: g, Hash: hash, Bytes: size, Created: time.Now()}

	r.mu.Lock()
	prev, replaced := r.entries[name]
	if replaced {
		r.bytes -= prev.Bytes
	}
	r.entries[name] = e
	r.bytes += size
	r.touch(name)
	evicted := r.evictLocked(name)
	var orphans []*Entry
	if replaced {
		orphans = r.orphansLocked(prev)
	}
	orphans = append(orphans, r.orphansLocked(evicted...)...)
	r.mu.Unlock()

	r.drop(evicted, orphans)
	return e, replaced, nil
}

// Get returns the entry for name and bumps its recency.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if ok {
		r.touch(name)
	}
	return e, ok
}

// Delete removes name, unlinks its snapshot, and fires invalidation.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	var orphans []*Entry
	if ok {
		delete(r.entries, name)
		delete(r.lastUse, name)
		r.bytes -= e.Bytes
		orphans = r.orphansLocked(e)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.drop([]*Entry{e}, orphans)
	return true
}

// Holds reports whether some registered name holds content with this
// hash.
func (r *Registry) Holds(hash string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.holdsLocked(hash)
}

func (r *Registry) holdsLocked(hash string) bool {
	for _, e := range r.entries {
		if e.Hash == hash {
			return true
		}
	}
	return false
}

// RecordSolve counts one solver run against name (per-graph statistics on
// /metrics) and bumps recency — a graph being solved is a graph in use.
func (r *Registry) RecordSolve(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		e.solves++
		r.touch(name)
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
	e, ok := r.entries[name]
	if !ok {
		return Info{}, false
	}
	return infoLocked(e), true
}

// List snapshots all entries, sorted by name for deterministic output.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// TotalBytes returns the summed encoded size of all entries.
func (r *Registry) TotalBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// touch bumps name's recency. Callers hold r.mu.
func (r *Registry) touch(name string) {
	r.lruSeq++
	r.lastUse[name] = r.lruSeq
}

// evictLocked enforces the count and byte bounds, never evicting keep
// (the entry just inserted). Callers hold r.mu; the evicted entries are
// returned so file removal and invalidation run outside the lock.
func (r *Registry) evictLocked(keep string) []*Entry {
	var out []*Entry
	for len(r.entries) > r.opts.MaxGraphs || r.bytes > r.opts.MaxBytes {
		victim := ""
		var oldest uint64
		for name := range r.entries {
			if name == keep {
				continue
			}
			if seq := r.lastUse[name]; victim == "" || seq < oldest {
				victim, oldest = name, seq
			}
		}
		if victim == "" {
			break
		}
		e := r.entries[victim]
		delete(r.entries, victim)
		delete(r.lastUse, victim)
		r.bytes -= e.Bytes
		out = append(out, e)
	}
	return out
}

// orphansLocked returns the dropped entries whose content no remaining
// entry holds. Callers hold r.mu and have already removed dropped.
func (r *Registry) orphansLocked(dropped ...*Entry) []*Entry {
	return slices.DeleteFunc(slices.Clone(dropped), func(d *Entry) bool { return r.holdsLocked(d.Hash) })
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
