package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prefcover/internal/debugpage"
)

// ChromeEvent is one Chrome trace-event: "ph":"X" complete events for
// spans, "ph":"i" instant events for span annotations. Times are
// microseconds relative to an epoch — by default the earliest root span,
// which is what the chrome://tracing and Perfetto loaders expect; the
// distributed-trace merge path uses an explicit epoch so events from two
// processes land on one timeline.
type ChromeEvent struct {
	Name  string                 `json:"name"`
	Cat   string                 `json:"cat"`
	Ph    string                 `json:"ph"`
	TS    float64                `json:"ts"`
	Dur   float64                `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeSpan renders a single trace tree (CLI one-shot dumps).
func WriteChromeSpan(w io.Writer, root *Span) error {
	var roots []*Span
	if root != nil {
		roots = []*Span{root}
	}
	return WriteChromeEvents(w, ChromeEvents(roots, time.Time{}))
}

// ChromeEvents flattens the trace trees into events with timestamps
// relative to epoch. A zero epoch means the earliest root start, which is
// what the chrome://tracing and Perfetto loaders expect; time.Unix(0, 0)
// yields absolute Unix-epoch microseconds, which is what lets a client
// rebase server-side events onto its own timeline. Each root trace gets
// its own tid so concurrent requests render as separate tracks.
func ChromeEvents(roots []*Span, epoch time.Time) []ChromeEvent {
	if epoch.IsZero() {
		for _, r := range roots {
			if epoch.IsZero() || r.Start().Before(epoch) {
				epoch = r.Start()
			}
		}
	}
	var events []ChromeEvent
	for i, r := range roots {
		events = appendChrome(events, r, epoch, i+1)
	}
	return events
}

// WriteChromeEvents renders pre-built events as the array-form JSON
// document, one event per line.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	for i, ev := range events {
		sep := ",\n"
		if i == 0 {
			sep = ""
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s", sep, b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// effectiveEnd returns the span end, falling back to the latest child end
// (then the start) for spans still open at export time.
func (s *Span) effectiveEnd() time.Time {
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if !end.IsZero() {
		return end
	}
	end = s.start
	for _, c := range s.Children() {
		if ce := c.effectiveEnd(); ce.After(end) {
			end = ce
		}
	}
	return end
}

func appendChrome(events []ChromeEvent, s *Span, epoch time.Time, tid int) []ChromeEvent {
	args := make(map[string]interface{})
	if id := s.TraceID(); id != "" {
		args["traceID"] = id
	}
	// Distributed-trace lineage rides along only when present, so purely
	// local traces export byte-identically to the pre-propagation format.
	if id := s.SpanID(); id != "" {
		args["spanId"] = id
	}
	if id := s.ParentSpanID(); id != "" {
		args["parentSpanId"] = id
	}
	for _, a := range s.Attrs() {
		args[a.Key] = a.Value
	}
	if !s.Ended() {
		args["unfinished"] = true
	}
	if len(args) == 0 {
		args = nil
	}
	events = append(events, ChromeEvent{
		Name: s.Name(),
		Cat:  "prefcover",
		Ph:   "X",
		TS:   micros(s.Start().Sub(epoch)),
		Dur:  micros(s.effectiveEnd().Sub(s.Start())),
		PID:  1,
		TID:  tid,
		Args: args,
	})
	for _, ev := range s.Events() {
		events = append(events, ChromeEvent{
			Name:  ev.Name,
			Cat:   "prefcover",
			Ph:    "i",
			TS:    micros(ev.Time.Sub(epoch)),
			PID:   1,
			TID:   tid,
			Scope: "t",
		})
	}
	for _, c := range s.Children() {
		events = appendChrome(events, c, epoch, tid)
	}
	return events
}

func micros(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d.Nanoseconds()) / 1e3
}

// WriteTreeSpan renders one trace tree as an indented human-readable
// summary.
func WriteTreeSpan(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	return writeTree(w, root, 0)
}

func writeTree(w io.Writer, s *Span, depth int) error {
	var sb strings.Builder
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(s.Name())
	if depth == 0 && s.TraceID() != "" {
		fmt.Fprintf(&sb, " [%s]", s.TraceID())
	}
	fmt.Fprintf(&sb, " %s", s.effectiveEnd().Sub(s.Start()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(&sb, " %s=%s", a.Key, a.render())
	}
	sb.WriteByte('\n')
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := writeTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Serve answers a GET /debug/traces request from t's ring: Chrome
// trace-event JSON by default (load it in chrome://tracing or Perfetto),
// the text tree for Accept: text/plain or the legacy ?format=tree.
//
//	?trace=<id>  only roots with that trace ID (request ID or W3C trace ID)
//	?limit=N     newest N traces
//	?epoch=unix  absolute Unix-epoch microseconds instead of
//	             earliest-root-relative — what lets a client merge these
//	             events with its own on one timeline
//
// For a malformed ?limit (400) or an Accept naming neither representation
// (406) Serve writes nothing and returns the status and error, which the
// caller answers in its own error format.
func Serve(w http.ResponseWriter, r *http.Request, t *Tracer) (int, error) {
	q := r.URL.Query()
	roots := t.Snapshot()
	if id := q.Get("trace"); id != "" {
		kept := roots[:0]
		for _, root := range roots {
			if root.TraceID() == id {
				kept = append(kept, root)
			}
		}
		roots = kept
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return http.StatusBadRequest, fmt.Errorf("bad limit %q", v)
		}
		if n < len(roots) {
			roots = roots[len(roots)-n:] // ring is oldest-first; keep the newest N
		}
	}
	offer := debugpage.Negotiate(r.Header.Get("Accept"), "application/json", "text/plain")
	if q.Get("format") == "tree" {
		offer = "text/plain"
	}
	switch offer {
	case "":
		return http.StatusNotAcceptable, fmt.Errorf("not acceptable %q (use application/json or text/plain)", r.Header.Get("Accept"))
	case "text/plain":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, root := range roots {
			_ = WriteTreeSpan(w, root)
		}
		return http.StatusOK, nil
	}
	var epoch time.Time
	if q.Get("epoch") == "unix" {
		epoch = time.Unix(0, 0)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = WriteChromeEvents(w, ChromeEvents(roots, epoch))
	return http.StatusOK, nil
}
