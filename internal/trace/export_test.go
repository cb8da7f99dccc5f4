package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// fixedTrace builds a deterministic two-root trace for the exporter
// goldens: every timestamp is pinned, so output must match byte-for-byte.
func fixedTrace() *Tracer {
	tr := New(8)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	r1 := tr.RootAt("request /v1/solve", "req-1", base)
	r1.SetAttr("method", "POST")
	parse := r1.ChildAt("parse", base.Add(10*time.Microsecond))
	parse.SetAttr("nodes", 100)
	parse.EndAt(base.Add(250 * time.Microsecond))
	solve := r1.ChildAt("solve", base.Add(300*time.Microsecond))
	it := solve.ChildAt("iteration 1", base.Add(310*time.Microsecond))
	it.SetAttr("gain", 0.25)
	it.SetAttr("evaluated", int64(100))
	it.EndAt(base.Add(500 * time.Microsecond))
	solve.EndAt(base.Add(510 * time.Microsecond))
	r1.SetAttr("status", 200)
	r1.EndAt(base.Add(600 * time.Microsecond))

	r2 := tr.RootAt("request /v1/stats", "req-2", base.Add(time.Millisecond))
	r2.EndAt(base.Add(time.Millisecond + 50*time.Microsecond))
	return tr
}

// writeChrome renders every completed trace in t as Chrome trace-event
// JSON, relative to the earliest root — what /debug/traces serves with no
// query.
func writeChrome(w io.Writer, t *Tracer) error {
	return WriteChromeEvents(w, ChromeEvents(t.Snapshot(), time.Time{}))
}

const wantChrome = `[{"name":"request /v1/solve","cat":"prefcover","ph":"X","ts":0,"dur":600,"pid":1,"tid":1,"args":{"method":"POST","status":200,"traceID":"req-1"}},
{"name":"parse","cat":"prefcover","ph":"X","ts":10,"dur":240,"pid":1,"tid":1,"args":{"nodes":100,"traceID":"req-1"}},
{"name":"solve","cat":"prefcover","ph":"X","ts":300,"dur":210,"pid":1,"tid":1,"args":{"traceID":"req-1"}},
{"name":"iteration 1","cat":"prefcover","ph":"X","ts":310,"dur":190,"pid":1,"tid":1,"args":{"evaluated":100,"gain":0.25,"traceID":"req-1"}},
{"name":"request /v1/stats","cat":"prefcover","ph":"X","ts":1000,"dur":50,"pid":1,"tid":2,"args":{"traceID":"req-2"}}]
`

// TestWriteChromeGolden pins the exact Chrome trace-event JSON emitted
// for a fixed span tree — the format chrome://tracing and Perfetto load.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, fixedTrace()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != wantChrome {
		t.Errorf("chrome export mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), wantChrome)
	}
	// The golden must itself be valid JSON of the documented shape.
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for i, ev := range events {
		for _, key := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d missing %q", i, key)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("event %d ph = %v, want X", i, ev["ph"])
		}
	}
}

const wantTree = `request /v1/solve [req-1] 600µs method=POST status=200
  parse 240µs nodes=100
  solve 210µs
    iteration 1 190µs gain=0.25 evaluated=100
request /v1/stats [req-2] 50µs
`

func TestWriteTreeGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, root := range fixedTrace().Snapshot() {
		if err := WriteTreeSpan(&buf, root); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != wantTree {
		t.Errorf("tree export mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), wantTree)
	}
}

// TestWriteChromeEmpty: an empty ring must still be a loadable document.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, New(1)); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty export = %q, want []", buf.String())
	}
	var events []interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
}

// TestUnfinishedSpans: a child left open at export time inherits its
// subtree's latest end and is flagged, instead of corrupting the timeline
// with a zero end.
func TestUnfinishedSpans(t *testing.T) {
	tr := New(1)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	root := tr.RootAt("r", "", base)
	open := root.ChildAt("open", base.Add(10*time.Microsecond))
	inner := open.ChildAt("inner", base.Add(20*time.Microsecond))
	inner.EndAt(base.Add(90 * time.Microsecond))
	// open is never ended.
	root.EndAt(base.Add(100 * time.Microsecond))

	var buf bytes.Buffer
	if err := writeChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"unfinished":true`) {
		t.Errorf("open span not flagged:\n%s", out)
	}
	if !strings.Contains(out, `"name":"open","cat":"prefcover","ph":"X","ts":10,"dur":80`) {
		t.Errorf("open span did not inherit its subtree end:\n%s", out)
	}
}

func TestWriteChromeSpanNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeSpan(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil span export = %q", buf.String())
	}
}
