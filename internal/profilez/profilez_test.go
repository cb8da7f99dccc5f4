package profilez

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcover/internal/chaostest"
)

func newTestCapturer(t *testing.T, opts Options) *Capturer {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	c := New(opts)
	t.Cleanup(c.Close)
	return c
}

func TestCaptureKindsAndList(t *testing.T) {
	c := newTestCapturer(t, Options{})
	for _, k := range []Kind{KindHeap, KindGoroutine, KindMutex, KindBlock} {
		e, err := c.Capture(context.Background(), k, "manual", 0)
		if err != nil {
			t.Fatalf("capture %s: %v", k, err)
		}
		if e.Bytes <= 0 {
			t.Errorf("capture %s: zero-byte profile", k)
		}
		rc, got, err := c.Open(e.ID)
		if err != nil {
			t.Fatalf("open %s: %v", e.ID, err)
		}
		info, err := ReadProfile(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("parse %s profile: %v", k, err)
		}
		_ = info // mutex/block may be empty; parsing must still succeed
		if got.Kind != k || got.Trigger != "manual" {
			t.Errorf("entry mismatch: %+v", got)
		}
	}
	if got := len(c.List()); got != 4 {
		t.Fatalf("List: got %d entries, want 4", got)
	}
	if _, _, err := c.Open("no-such-capture"); err == nil {
		t.Fatal("Open of unknown ID succeeded")
	}
}

func TestCaptureCPUHasSamplesAndIsExclusive(t *testing.T) {
	c := newTestCapturer(t, Options{})

	// Busy goroutine so the 250ms window has something to sample.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		x := 1.0
		for {
			select {
			case <-stop:
				return
			default:
				x = x*1.0000001 + 1
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		_, err := c.Capture(context.Background(), KindCPU, "manual", 0.25)
		done <- err
	}()
	// The second CPU capture must be rejected while the first runs.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Capture(context.Background(), KindCPU, "manual", 0.25); err != ErrCPUBusy {
		if !strings.Contains(err.Error(), ErrCPUBusy.Error()) {
			t.Errorf("concurrent CPU capture: got %v, want ErrCPUBusy", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("CPU capture: %v", err)
	}

	entries := c.List()
	if len(entries) != 1 || entries[0].Kind != KindCPU {
		t.Fatalf("entries = %+v, want one cpu capture", entries)
	}
	if entries[0].Seconds != 0.25 {
		t.Errorf("Seconds = %v, want 0.25", entries[0].Seconds)
	}
	rc, _, err := c.Open(entries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := ReadProfile(rc); err != nil {
		t.Fatalf("parse cpu profile: %v", err)
	}
}

func TestCaptureCPUCancel(t *testing.T) {
	c := newTestCapturer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := c.Capture(ctx, KindCPU, "manual", 30); err != context.Canceled {
		t.Fatalf("canceled capture: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel did not interrupt the window (took %v)", elapsed)
	}
}

func TestRingEvictionBounds(t *testing.T) {
	dir := t.TempDir()
	c := newTestCapturer(t, Options{Dir: dir, MaxFiles: 3})
	for i := 0; i < 8; i++ {
		if _, err := c.Capture(context.Background(), KindGoroutine, "manual", 0); err != nil {
			t.Fatal(err)
		}
	}
	files, bytes := c.Stats()
	if files != 3 {
		t.Fatalf("files = %d, want 3 after eviction", files)
	}
	if bytes <= 0 {
		t.Fatalf("bytes = %d, want > 0", bytes)
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "*.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 3 {
		t.Fatalf("on-disk files = %d, want 3 (evicted files must be deleted)", len(onDisk))
	}
	// Every retained entry must still be openable.
	for _, e := range c.List() {
		rc, _, err := c.Open(e.ID)
		if err != nil {
			t.Fatalf("open retained %s: %v", e.ID, err)
		}
		rc.Close()
	}
}

func TestRingEvictionByBytes(t *testing.T) {
	c := newTestCapturer(t, Options{MaxBytes: 1}) // every capture exceeds 1 byte
	if _, err := c.Capture(context.Background(), KindGoroutine, "manual", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Capture(context.Background(), KindGoroutine, "manual", 0); err != nil {
		t.Fatal(err)
	}
	files, _ := c.Stats()
	// The newest capture may itself exceed the bound; eviction keeps
	// dropping oldest-first until the bound holds or the ring is empty.
	if files > 1 {
		t.Fatalf("files = %d, want <= 1 under a 1-byte bound", files)
	}
}

// TestConcurrentTriggersHonorRetention is the acceptance-criteria race
// test: many concurrent triggers and captures must leave the ring within
// its bounds, with no goroutine leaks.
func TestConcurrentTriggersHonorRetention(t *testing.T) {
	baseline := chaostest.GoroutineBaseline()
	dir := t.TempDir()
	c := New(Options{Dir: dir, MaxFiles: 4, Cooldown: time.Nanosecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch j % 3 {
				case 0:
					c.Trigger("slow_request")
				case 1:
					if _, err := c.Capture(context.Background(), KindHeap, "manual", 0); err != nil {
						t.Error(err)
					}
				default:
					c.List()
					c.Stats()
				}
			}
		}(i)
	}
	wg.Wait()
	c.Close() // waits for async trigger goroutines

	files, _ := c.Stats()
	if files != 0 {
		t.Fatalf("Stats after Close: %d files, want 0", files)
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "*.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 4 {
		t.Fatalf("on-disk files = %d, want <= MaxFiles 4", len(onDisk))
	}
	chaostest.CheckGoroutines(t, baseline)
}

func TestTriggerCooldown(t *testing.T) {
	c := newTestCapturer(t, Options{Cooldown: time.Hour})
	c.Trigger("slow_request")
	c.Trigger("slow_request") // within cooldown: dropped
	c.Trigger("other")        // distinct trigger: captured
	c.triggerWG.Wait()
	byTrigger := map[string]int{}
	for _, e := range c.List() {
		byTrigger[e.Trigger]++
	}
	// Each trigger captures heap + goroutine.
	if byTrigger["slow_request"] != 2 || byTrigger["other"] != 2 {
		t.Fatalf("captures by trigger = %v, want slow_request:2 other:2", byTrigger)
	}
}

func TestPeriodicLoop(t *testing.T) {
	baseline := chaostest.GoroutineBaseline()
	c := New(Options{Dir: t.TempDir(), Interval: 20 * time.Millisecond})
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries := c.List()
		if len(entries) >= 2 {
			for _, e := range entries {
				if e.Trigger != "periodic" {
					t.Fatalf("unexpected trigger %q", e.Trigger)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic loop produced no captures in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	chaostest.CheckGoroutines(t, baseline)
}

func TestOwnedTempDirRemovedOnClose(t *testing.T) {
	c := New(Options{})
	if _, err := c.Capture(context.Background(), KindGoroutine, "manual", 0); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		t.Fatal("no owned dir created")
	}
	c.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("owned dir %s not removed on Close (err=%v)", dir, err)
	}
}

func TestHandlerIndexCaptureDownload(t *testing.T) {
	c := newTestCapturer(t, Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// On-demand capture via POST.
	resp, err := http.Post(srv.URL+"?capture=goroutine", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || e.Kind != KindGoroutine || e.Trigger != "manual" {
		t.Fatalf("capture: status=%d entry=%+v", resp.StatusCode, e)
	}

	// JSON index lists it with provenance.
	resp, err = http.Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var idx indexPayload
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Files != 1 || len(idx.Captures) != 1 || idx.Captures[0].ID != e.ID {
		t.Fatalf("index = %+v, want the one capture", idx)
	}
	if idx.GitSHA == "" || idx.GoVersion == "" || idx.UptimeSeconds < 0 {
		t.Fatalf("index provenance missing: %+v", idx)
	}

	// HTML index mentions the capture and label keys.
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := readAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{e.ID, "strategy", "tagfocus"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML index missing %q", want)
		}
	}

	// Download round-trips a parseable profile.
	resp, err = http.Get(srv.URL + "?download=" + e.ID)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadProfile(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("parse downloaded profile: %v", err)
	}
	if info.Samples == 0 {
		t.Error("downloaded goroutine profile has no samples")
	}

	// Error paths.
	for _, tc := range []struct {
		method, query string
		status        int
	}{
		{http.MethodPost, "?capture=bogus", http.StatusBadRequest},
		{http.MethodPost, "", http.StatusBadRequest},
		{http.MethodPost, "?capture=cpu&seconds=9999", http.StatusBadRequest},
		{http.MethodGet, "?download=missing", http.StatusNotFound},
		{http.MethodDelete, "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.query, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error string `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %q: status %d, want %d", tc.method, tc.query, resp.StatusCode, tc.status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" || decodeErr != nil || env.Error == "" {
			t.Errorf("%s %q: Content-Type %q, error %q (%v); want the JSON error envelope", tc.method, tc.query, ct, env.Error, decodeErr)
		}
	}
}

func TestKBucket(t *testing.T) {
	cases := map[int]string{
		-1: "threshold", 0: "threshold",
		1: "1-16", 16: "1-16",
		17: "17-32", 32: "17-32",
		33: "33-64", 64: "33-64", 65: "65-128",
		1000: "513-1024",
	}
	for k, want := range cases {
		if got := KBucket(k); got != want {
			t.Errorf("KBucket(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestUsageSinceMonotone(t *testing.T) {
	start := TakeSample()
	// Allocate measurably, in objects above 32 KiB: those are counted at
	// allocation, small ones only when their span is refilled (see Usage).
	const size = 40 << 10
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, size))
	}
	_ = sink
	u := Since(start)
	if u.WallNanos <= 0 {
		t.Errorf("WallNanos = %d, want > 0", u.WallNanos)
	}
	if u.AllocBytes < 64*size {
		t.Errorf("AllocBytes = %d, want >= %d", u.AllocBytes, 64*size)
	}
	if u.AllocObjects < 64 {
		t.Errorf("AllocObjects = %d, want >= 64", u.AllocObjects)
	}
	if u.CPUNanos < 0 || u.GCPauseNanos < 0 {
		t.Errorf("negative usage: %+v", u)
	}
}

func TestAccountantTopAndOverflow(t *testing.T) {
	a := NewAccountant()
	a.Record("g1", "lazy", Usage{WallNanos: 10, CPUNanos: 100, AllocBytes: 1})
	a.Record("g1", "lazy", Usage{WallNanos: 10, CPUNanos: 100, AllocBytes: 1})
	a.Record("g2", "scan", Usage{WallNanos: 99, CPUNanos: 50})
	a.Record("", "lazy", Usage{CPUNanos: 1})

	top := a.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) = %d rows", len(top))
	}
	if top[0].Graph != "g1" || top[0].CPUNanos != 200 || top[0].Solves != 2 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Graph != "g2" {
		t.Fatalf("top[1] = %+v", top[1])
	}
	found := false
	for _, row := range a.Top(0) {
		if row.Graph == "(inline)" {
			found = true
		}
	}
	if !found {
		t.Error("empty graph not folded into (inline)")
	}

	// Cardinality bound: distinct keys beyond the cap fold into "other".
	b := NewAccountant()
	for i := 0; i < maxAccountKeys+50; i++ {
		b.Record("graph-"+strings.Repeat("x", i%7)+string(rune('a'+i%26))+itoa(i), "lazy", Usage{CPUNanos: 1})
	}
	rows := b.Top(0)
	if len(rows) > maxAccountKeys {
		t.Fatalf("accountant grew to %d keys, cap is %d", len(rows), maxAccountKeys)
	}
	var other int64
	for _, r := range rows {
		if r.ConsumerKey == overflowKey {
			other = r.Solves
		}
	}
	if other < 50 {
		t.Fatalf("overflow row has %d solves, want >= 50", other)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// TestIndexNegotiation: the index picks its representation by Accept like
// the other debug endpoints, and ?format=json wins over any Accept.
func TestIndexNegotiation(t *testing.T) {
	h := newTestCapturer(t, Options{}).Handler()
	for _, tc := range []struct {
		target, accept string
		code           int
		ct             string
	}{
		{"/debug/profilez", "", http.StatusOK, "text/html"},
		{"/debug/profilez", "text/html,application/xhtml+xml,*/*;q=0.8", http.StatusOK, "text/html"},
		{"/debug/profilez", "application/json", http.StatusOK, "application/json"},
		{"/debug/profilez", "application/json; charset=utf-8", http.StatusOK, "application/json"},
		{"/debug/profilez", "application/json, text/html", http.StatusOK, "application/json"},
		{"/debug/profilez", "image/png", http.StatusNotAcceptable, "application/json"},
		{"/debug/profilez?format=json", "text/html", http.StatusOK, "application/json"},
		{"/debug/profilez?format=json", "image/png", http.StatusOK, "application/json"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		req.Header.Set("Accept", tc.accept)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if ct := rr.Header().Get("Content-Type"); rr.Code != tc.code || !strings.HasPrefix(ct, tc.ct) {
			t.Errorf("GET %s, Accept %q: %d %q, want %d %s", tc.target, tc.accept, rr.Code, ct, tc.code, tc.ct)
		}
	}
}

func readAll(r io.Reader) (string, error) {
	b, err := io.ReadAll(r)
	return string(b), err
}
