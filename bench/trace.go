package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps bench-owned spans in memory and writes them at exit as
// Chrome trace-event JSON. Spans of one op share a tid; each span names
// its parent, and its self time is its duration minus its children's,
// which never overlap.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // 0 = root
	tid        int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a finished span and returns its id (ids start at 1).
func (t *tracer) add(name string, parent, tid int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, tid: tid, start: start, end: end})
	return len(t.spans)
}

// timed runs f inside a new span and returns the span's id and duration;
// f receives the id so it can record child spans under it.
func (t *tracer) timed(name string, parent, tid int, f func(id int)) (int, time.Duration) {
	id := t.add(name, parent, tid, time.Time{}, time.Time{})
	start := time.Now()
	f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].start, t.spans[id-1].end = start, end
	t.mu.Unlock()
	return id, end.Sub(start)
}

// traceEvent is one Chrome "complete" event; ts and dur are microseconds.
// Args carry the span tree and the self time, which the format lacks.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		ID     int   `json:"id"`
		Parent int   `json:"parent"`
		DurNs  int64 `json:"dur_ns"`
		SelfNs int64 `json:"self_ns"`
	} `json:"args"`
}

// write stores the spans at path.
func (t *tracer) write(path string) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		dur := s.end.Sub(s.start).Nanoseconds()
		e := &events[i]
		e.Name, e.Ph, e.Pid, e.Tid = s.name, "X", 1, s.tid
		e.Ts, e.Dur = float64(s.start.Sub(t.base).Nanoseconds())/1e3, float64(dur)/1e3
		e.Args.ID, e.Args.Parent, e.Args.DurNs = i+1, s.parent, dur
		e.Args.SelfNs += dur
		if s.parent > 0 {
			events[s.parent-1].Args.SelfNs -= dur
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
