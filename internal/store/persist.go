package store

// Disk persistence: one <name>.pcg file per entry holding the graph's
// versioned binary encoding (internal/graph's "PCG1" codec), nothing else.
// The filename is the registry name — safe because ValidateName forbids
// separators and leading dots — so the directory doubles as a
// human-browsable catalog and needs no manifest to stay consistent.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prefcover/internal/graph"
)

// snapshotExt marks registry snapshots; anything else in the directory is
// ignored on load.
const snapshotExt = ".pcg"

// persist encodes g (hashing as it goes) and, when persistence is on,
// writes the snapshot atomically: encode to <name>.pcg.tmp, fsync, rename
// over the final path. A crash mid-write leaves at worst a .tmp file the
// next load ignores.
func (r *Registry) persist(name string, g *graph.Graph) (hash string, size int64, err error) {
	if r.opts.Dir == "" {
		return encode(g, nil)
	}
	final := filepath.Join(r.opts.Dir, name+snapshotExt)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", 0, fmt.Errorf("store: creating snapshot: %w", err)
	}
	// With a fault injector configured, the snapshot sink may error
	// outright or truncate partway — either way the write below fails, the
	// tmp file is removed, and no entry is installed, exactly as if the
	// disk itself had misbehaved.
	var sink io.Writer = f
	if r.opts.Faults != nil {
		sink, err = r.opts.Faults.DiskOp(f)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return "", 0, fmt.Errorf("store: persisting graph %q: %w", name, err)
		}
	}
	hash, size, err = encode(g, sink)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("store: persisting graph %q: %w", name, err)
	}
	return hash, size, nil
}

// removeFile unlinks name's snapshot, if persistence is on. Removal
// failures are logged, not returned: the in-memory registry is the source
// of truth, and a leftover file only costs disk until the next Put.
func (r *Registry) removeFile(name string) {
	if r.opts.Dir == "" {
		return
	}
	path := filepath.Join(r.opts.Dir, name+snapshotExt)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		r.logWarn("store: removing snapshot failed", "path", path, "error", err)
	}
}

// loadDir reloads every snapshot at startup. Files that fail to parse —
// truncated by a crash, corrupted on disk, or simply not a graph — are
// skipped with a warning so one bad file cannot block serving the rest.
func (r *Registry) loadDir() error {
	if err := os.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("store: creating persistence dir: %w", err)
	}
	dirents, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: listing persistence dir: %w", err)
	}
	for _, de := range dirents {
		fname := de.Name()
		if de.IsDir() || !strings.HasSuffix(fname, snapshotExt) {
			continue
		}
		name := strings.TrimSuffix(fname, snapshotExt)
		if err := ValidateName(name); err != nil {
			r.logWarn("store: skipping snapshot with invalid name", "file", fname, "error", err)
			continue
		}
		path := filepath.Join(r.opts.Dir, fname)
		e, err := loadSnapshot(name, path)
		if err != nil {
			r.logWarn("store: skipping corrupt snapshot", "file", fname, "error", err)
			continue
		}
		r.mu.Lock()
		r.entries[name] = e
		r.bytes += e.Bytes
		r.touch(name)
		evicted := r.evictLocked(name)
		orphans := r.orphansLocked(evicted...)
		r.mu.Unlock()
		// Over-bound directories trim down to the configured budget; the
		// evicted snapshots are deleted so the trim sticks across restarts.
		r.drop(evicted, orphans)
	}
	return nil
}

// loadSnapshot parses one snapshot file and re-derives the canonical
// content hash by re-encoding the parsed graph — the exact computation Put
// performs — so a reloaded entry carries the same Hash (and therefore the
// same ETag and solve-cache identity) across restarts even if the on-disk
// bytes were produced by an older encoder or carry trailing junk.
func loadSnapshot(name, path string) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return nil, err
	}
	hash, size, err := encode(g, nil)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return &Entry{
		Name:    name,
		Graph:   g,
		Hash:    hash,
		Bytes:   size,
		Created: info.ModTime(),
	}, nil
}
