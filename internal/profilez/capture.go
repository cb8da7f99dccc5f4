package profilez

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prefcover/internal/lru"
)

// Kind names one profile the capturer can snapshot. cpu is sampled over a
// window; the others are instantaneous runtime dumps.
type Kind string

const (
	KindCPU       Kind = "cpu"
	KindHeap      Kind = "heap"
	KindGoroutine Kind = "goroutine"
	KindMutex     Kind = "mutex"
	KindBlock     Kind = "block"
)

// Kinds lists every supported profile kind.
func Kinds() []Kind {
	return []Kind{KindCPU, KindHeap, KindGoroutine, KindMutex, KindBlock}
}

// snapshotKinds are the profiles the periodic loop and every trigger
// capture: heap and goroutine. cpu is deliberately not among them — it is
// exclusive and window-based, so it is on-demand only.
var snapshotKinds = []Kind{KindHeap, KindGoroutine}

// defaultCPUSeconds is the CPU capture window when a request names none.
const defaultCPUSeconds = 5

// ValidKind reports whether k names a supported profile.
func ValidKind(k Kind) bool {
	switch k {
	case KindCPU, KindHeap, KindGoroutine, KindMutex, KindBlock:
		return true
	}
	return false
}

// ErrCPUBusy is returned when a CPU capture is requested while another is
// already running; the runtime supports only one CPU profile at a time
// process-wide.
var ErrCPUBusy = errors.New("profilez: a CPU profile capture is already in progress")

// Options configures a Capturer. The zero value is usable: captures land
// in an owned temp directory that is removed on Close.
type Options struct {
	// Dir is where profile files are written. Empty means a private
	// temp directory created lazily and removed by Close.
	Dir string
	// MaxFiles bounds the number of retained captures (default 64).
	MaxFiles int
	// MaxBytes bounds the total on-disk size of retained captures
	// (default 64 MiB). Oldest captures are evicted first when either
	// bound is exceeded; the newest capture is always kept.
	MaxBytes int64
	// Interval enables the periodic capture loop when > 0: every
	// Interval the capturer snapshots heap and goroutine profiles.
	Interval time.Duration
	// Cooldown rate-limits trigger-based captures per trigger name
	// (default 1m) so a storm of slow requests yields one snapshot,
	// not hundreds.
	Cooldown time.Duration
	// Logger receives capture/eviction events (default slog.Default).
	Logger *slog.Logger
	// OnCapture, when set, observes every completed capture — the
	// server bridges this into /metrics counters and gauges.
	OnCapture func(e Entry)
}

// Entry describes one retained capture.
type Entry struct {
	// ID is the stable handle used by ?download= and eviction; it is
	// also the file's base name.
	ID string `json:"id"`
	// Kind is the profile kind captured.
	Kind Kind `json:"kind"`
	// Trigger records why the capture happened: "periodic", "manual",
	// or a trigger name such as "slow_request" / "job_queue_saturated".
	Trigger string `json:"trigger"`
	// Time is when the capture finished.
	Time time.Time `json:"time"`
	// Seconds is the sampling window for cpu captures, 0 otherwise.
	Seconds float64 `json:"seconds,omitempty"`
	// Bytes is the on-disk size of the profile file.
	Bytes int64 `json:"bytes"`
}

// Capturer owns the on-disk profile ring, the periodic capture loop, and
// trigger-based capture. All methods are safe for concurrent use.
type Capturer struct {
	opts    Options
	log     *slog.Logger
	started time.Time

	mu      sync.Mutex
	dir     string                    // resolved capture directory ("" until first use)
	ownDir  bool                      // dir was created by us -> removed on Close
	entries *lru.Table[string, Entry] // capture order: downloads only Peek
	lastTrg map[string]time.Time
	seq     uint64
	closed  bool

	cpuBusy atomic.Bool

	loopCancel context.CancelFunc
	loopDone   chan struct{}

	// triggerWG tracks async Trigger goroutines so Close can wait for
	// them (and tests can assert no leaks).
	triggerWG sync.WaitGroup
}

// New creates a Capturer. Call Start to begin the periodic loop (optional
// — on-demand Capture and Trigger work without it), and Close to stop
// everything and clean owned state.
func New(opts Options) *Capturer {
	if opts.MaxFiles <= 0 {
		opts.MaxFiles = 64
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 20
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Minute
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Capturer{
		opts:    opts,
		log:     log,
		started: time.Now(),
		dir:     opts.Dir,
		entries: lru.New[string](opts.MaxFiles, opts.MaxBytes, func(e Entry) int64 { return e.Bytes }),
		lastTrg: map[string]time.Time{},
	}
}

// Start launches the periodic capture loop when Interval > 0.
func (c *Capturer) Start() {
	if c.opts.Interval <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.loopCancel = cancel
	c.loopDone = make(chan struct{})
	go c.loop(ctx)
}

func (c *Capturer) loop(ctx context.Context) {
	defer close(c.loopDone)
	tick := time.NewTicker(c.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, k := range snapshotKinds {
				if _, err := c.Capture(ctx, k, "periodic", 0); err != nil && ctx.Err() == nil {
					c.log.Warn("profilez periodic capture failed", "kind", k, "error", err)
				}
			}
		}
	}
}

// Close stops the periodic loop, waits for in-flight triggers, and
// removes the capture directory if the capturer created it.
func (c *Capturer) Close() {
	if c.loopCancel != nil {
		c.loopCancel()
		<-c.loopDone
	}
	c.triggerWG.Wait()
	c.mu.Lock()
	c.closed = true
	dir, own := c.dir, c.ownDir
	c.entries.Each(func(id string, _ Entry) bool { c.entries.Remove(id); return true })
	c.mu.Unlock()
	if own && dir != "" {
		os.RemoveAll(dir)
	}
}

// Trigger asynchronously captures heap+goroutine snapshots attributed to
// the named trigger, subject to the per-trigger cooldown. It returns
// immediately; it is safe to call from request hot paths.
func (c *Capturer) Trigger(name string) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	if last, ok := c.lastTrg[name]; ok && now.Sub(last) < c.opts.Cooldown {
		c.mu.Unlock()
		return
	}
	c.lastTrg[name] = now
	c.triggerWG.Add(1)
	c.mu.Unlock()

	go func() {
		defer c.triggerWG.Done()
		for _, k := range snapshotKinds {
			if _, err := c.Capture(context.Background(), k, name, 0); err != nil {
				c.log.Warn("profilez trigger capture failed", "trigger", name, "kind", k, "error", err)
			}
		}
	}()
}

// Capture snapshots one profile into the ring and returns its entry.
// For KindCPU, seconds sets the sampling window (<= 0 uses the
// configured default) and the call blocks for that long; concurrent CPU
// captures return ErrCPUBusy because the runtime allows only one.
func (c *Capturer) Capture(ctx context.Context, kind Kind, trigger string, seconds float64) (Entry, error) {
	if !ValidKind(kind) {
		return Entry{}, fmt.Errorf("profilez: unknown profile kind %q", kind)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Entry{}, errors.New("profilez: capturer closed")
	}
	dir, err := c.ensureDirLocked()
	if err != nil {
		c.mu.Unlock()
		return Entry{}, err
	}
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	start := time.Now()
	id := fmt.Sprintf("%s-%s-%06d.pb.gz", start.UTC().Format("20060102T150405"), kind, seq)
	tmp, err := os.CreateTemp(dir, "."+string(kind)+"-*.tmp")
	if err != nil {
		return Entry{}, fmt.Errorf("profilez: create capture file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename

	var window float64
	switch kind {
	case KindCPU:
		window = seconds
		if window <= 0 {
			window = defaultCPUSeconds
		}
		err = c.captureCPU(ctx, tmp, window)
	default:
		p := pprof.Lookup(string(kind))
		if p == nil {
			err = fmt.Errorf("profilez: runtime profile %q not found", kind)
		} else {
			err = p.WriteTo(tmp, 0)
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Entry{}, err
	}
	fi, err := os.Stat(tmp.Name())
	if err != nil {
		return Entry{}, err
	}
	final := filepath.Join(dir, id)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return Entry{}, fmt.Errorf("profilez: admit capture: %w", err)
	}

	e := Entry{ID: id, Kind: kind, Trigger: trigger, Time: time.Now(), Seconds: window, Bytes: fi.Size()}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		os.Remove(final)
		return Entry{}, errors.New("profilez: capturer closed")
	}
	evicted := c.entries.Put(id, e)
	c.mu.Unlock()

	for _, ev := range evicted {
		os.Remove(filepath.Join(dir, ev.Key))
		c.log.Debug("profilez evicted capture", "id", ev.Key, "bytes", ev.Value.Bytes)
	}
	c.log.Info("profilez capture", "kind", kind, "trigger", trigger, "id", id,
		"bytes", e.Bytes, "elapsed", time.Since(start).Round(time.Millisecond))
	if c.opts.OnCapture != nil {
		c.opts.OnCapture(e)
	}
	return e, nil
}

func (c *Capturer) captureCPU(ctx context.Context, w io.Writer, seconds float64) error {
	if !c.cpuBusy.CompareAndSwap(false, true) {
		return ErrCPUBusy
	}
	defer c.cpuBusy.Store(false)
	if err := pprof.StartCPUProfile(w); err != nil {
		// The runtime also rejects a second concurrent CPU profile (e.g.
		// one started by /debug/pprof/profile outside our gate).
		return fmt.Errorf("%w: %v", ErrCPUBusy, err)
	}
	defer pprof.StopCPUProfile()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Duration(seconds * float64(time.Second))):
		return nil
	}
}

func (c *Capturer) ensureDirLocked() (string, error) {
	if c.dir != "" {
		if !c.ownDir {
			if err := os.MkdirAll(c.dir, 0o755); err != nil {
				return "", fmt.Errorf("profilez: create capture dir: %w", err)
			}
			c.ownDir = false
		}
		return c.dir, nil
	}
	dir, err := os.MkdirTemp("", "profilez-")
	if err != nil {
		return "", fmt.Errorf("profilez: create capture dir: %w", err)
	}
	c.dir, c.ownDir = dir, true
	return dir, nil
}

// List returns retained captures, newest first.
func (c *Capturer) List() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.entries.Len())
	c.entries.Each(func(_ string, e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Stats reports current ring occupancy.
func (c *Capturer) Stats() (files int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len(), c.entries.Bytes()
}

// Open returns a reader over a retained capture by ID.
func (c *Capturer) Open(id string) (io.ReadCloser, Entry, error) {
	c.mu.Lock()
	e, found := c.entries.Peek(id)
	if !found || c.dir == "" {
		c.mu.Unlock()
		return nil, Entry{}, fmt.Errorf("profilez: no capture %q", id)
	}
	path := filepath.Join(c.dir, filepath.Base(id))
	c.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, Entry{}, err
	}
	return f, e, nil
}

// Uptime is how long the capturer (and in practice the process) has been
// running; shown as provenance on the index page.
func (c *Capturer) Uptime() time.Duration { return time.Since(c.started) }

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return strconv.FormatFloat(float64(n)/(1<<20), 'f', 1, 64) + " MiB"
	case n >= 1<<10:
		return strconv.FormatFloat(float64(n)/(1<<10), 'f', 1, 64) + " KiB"
	default:
		return strconv.FormatInt(n, 10) + " B"
	}
}
