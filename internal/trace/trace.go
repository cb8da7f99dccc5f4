// Package trace is a zero-dependency solve-trace flight recorder: a span
// recorder in the Dapper tradition, sized for a single process. A Tracer
// hands out root spans (one per request or per CLI run); spans nest, carry
// ordered key/value attributes, and are safe to create and end from
// concurrent goroutines. Completed root spans land in a bounded ring, so
// always-on recording in a long-lived daemon costs a fixed amount of
// memory — when the ring is full the oldest trace is evicted and counted
// in Dropped.
//
// Two exporters read the ring: ChromeEvents and WriteChromeEvents emit
// Chrome trace-event JSON (the "ph":"X" complete-event form), loadable in
// chrome://tracing and Perfetto, and WriteTreeSpan prints an indented
// human-readable summary. Serve puts both behind /debug/traces.
//
// The package is nil-tolerant by design: every Span method is a no-op on a
// nil receiver and FromContext returns nil when no span was installed, so
// instrumented code paths need no "is tracing on?" branches.
package trace

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records completed root spans into a bounded ring.
type Tracer struct {
	capacity int
	ids      atomic.Int64

	mu      sync.Mutex
	roots   []*Span // completed root spans, oldest first
	dropped int64
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity.
const DefaultCapacity = 64

// New returns a Tracer retaining at most capacity completed root spans.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

// Root starts a root span. traceID tags the whole tree (the server uses
// the request ID); empty means untagged. The trace is recorded into the
// ring when End is called on the returned span.
func (t *Tracer) Root(name, traceID string) *Span {
	return t.RootAt(name, traceID, time.Now())
}

// RootAt is Root with an explicit start time (exporters and tests).
func (t *Tracer) RootAt(name, traceID string, start time.Time) *Span {
	return &Span{tracer: t, id: t.ids.Add(1), name: name, traceID: traceID, start: start}
}

// RootContext starts a root span that continues a distributed trace: the
// span is tagged with sc.TraceID, parented (across the process or queue
// boundary) to sc.SpanID when one is set, and minted its own span ID so
// the trace can be propagated onward. Use NewSpanContext() to originate a
// fresh trace. The trace is recorded into the ring when End is called.
func (t *Tracer) RootContext(name string, sc SpanContext) *Span {
	return t.RootContextAt(name, sc, time.Now())
}

// RootContextAt is RootContext with an explicit start time.
func (t *Tracer) RootContextAt(name string, sc SpanContext, start time.Time) *Span {
	return &Span{
		tracer: t, id: t.ids.Add(1), name: name,
		traceID: sc.TraceID, spanID: newSpanID(), parentSpanID: sc.SpanID,
		start: start,
	}
}

// record admits a completed root trace, evicting the oldest beyond
// capacity.
func (t *Tracer) record(root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots = append(t.roots, root)
	if over := len(t.roots) - t.capacity; over > 0 {
		t.dropped += int64(over)
		t.roots = t.roots[:copy(t.roots, t.roots[over:])]
	}
}

// Snapshot returns the completed root spans, oldest first.
func (t *Tracer) Snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// Capacity is the number of root traces the ring holds.
func (t *Tracer) Capacity() int { return t.capacity }

// Dropped counts root traces evicted from the ring so far.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Attr is one span attribute. Value is a string, bool, int64 or float64
// (SetAttr normalizes the smaller integer kinds).
type Attr struct {
	Key   string
	Value interface{}
}

// render formats an attribute value for the tree exporter.
func (a Attr) render() string {
	switch v := a.Value.(type) {
	case string:
		return v
	case float64:
		return strconv.FormatFloat(v, 'g', 6, 64)
	default:
		return fmt.Sprint(v)
	}
}

// Span is one timed operation. Create children with Child/ChildAt, attach
// attributes with SetAttr, and call End exactly once (later Ends are
// ignored). All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Span struct {
	tracer  *Tracer
	id      int64
	name    string
	traceID string
	// spanID and parentSpanID are W3C-format identifiers, set only on
	// spans belonging to a distributed trace (RootContext and its
	// descendants); purely local traces leave them empty and export
	// exactly as before.
	spanID       string
	parentSpanID string
	start        time.Time
	parent       *Span

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	events   []Event
	children []*Span
}

// Event is a timestamped point annotation on a span — cache hits,
// coalesced waits, retry give-ups — exported as Chrome instant events.
type Event struct {
	Name string
	Time time.Time
}

// Child starts a sub-span beginning now.
func (s *Span) Child(name string) *Span {
	return s.ChildAt(name, time.Now())
}

// ChildAt starts a sub-span with an explicit start time, letting callers
// that observe an operation only at its end (the solver's progress stream)
// backfill the span boundary.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, name: name, traceID: s.traceID, start: start, parent: s}
	if s.spanID != "" {
		// Distributed trace: every span carries its own ID and a parent
		// link, so cross-process merges can reconstruct the tree.
		c.spanID = newSpanID()
		c.parentSpanID = s.spanID
	}
	if s.tracer != nil {
		c.id = s.tracer.ids.Add(1)
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches (or appends; keys are not deduplicated) an attribute.
// Integer kinds are widened to int64 so exporters see a closed value set.
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	switch v := value.(type) {
	case int:
		value = int64(v)
	case int32:
		value = int64(v)
	case uint:
		value = int64(v)
	case uint32:
		value = int64(v)
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span at time.Now. Ending a root span records its tree in
// the tracer ring; ending twice is a no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = t
	s.mu.Unlock()
	if s.parent == nil && s.tracer != nil {
		s.tracer.record(s)
	}
}

// AddEvent attaches a timestamped point annotation.
func (s *Span) AddEvent(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, Time: time.Now()})
	s.mu.Unlock()
}

// Events returns a copy of the point annotations in insertion order.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Context returns the span's propagation identity: its trace ID and its
// own span ID, sampled. Only spans of a distributed trace (RootContext
// lineage) have one; everything else returns the invalid zero value,
// which injects nothing.
func (s *Span) Context() SpanContext {
	if s == nil || s.spanID == "" {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// SpanID returns the span's W3C span ID ("" for purely local spans).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// ParentSpanID returns the W3C span ID this span is parented to — for a
// RootContext span that is the remote caller's span, for descendants the
// in-process parent ("" for purely local spans and originating roots).
func (s *Span) ParentSpanID() string {
	if s == nil {
		return ""
	}
	return s.parentSpanID
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the trace tag inherited from the root span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// Start returns the span start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Ended reports whether End was called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Duration returns end - start, or 0 while the span is still open.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns a copy of the direct sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Attrs returns a copy of the attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Attr returns the value of the first attribute with the key, or nil.
func (s *Span) Attr(key string) interface{} {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// NumSpans counts the span and all descendants.
func (s *Span) NumSpans() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += c.NumSpans()
	}
	return n
}
