// Package metrics is a dependency-free instrumentation core exposing
// counters, gauges and histograms as promtext snapshots, served in the
// Prometheus text exposition format (version 0.0.4). It implements just
// the subset the prefcover serving layer needs — integer counters and
// gauges, float histograms, and a fixed label set per metric family —
// with lock-free hot paths (atomics) and a mutex only around series
// creation and snapshots.
//
// The design follows the usual client-library shape: a Registry owns
// metric families, a family (CounterVec, GaugeVec, HistogramVec) owns the
// label schema, and With(labelValues...) returns the concrete series to
// update. Families with no labels have exactly one series, With().
package metrics

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prefcover/internal/promtext"
)

// DefBuckets are the default histogram buckets (seconds), matching the
// Prometheus client defaults so dashboards carry over.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry owns a set of metric families and snapshots them for scraping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Snapshot reads every registered family from its atomics: families
// sorted by name, series by label values, labels in declared order with
// a histogram's le last, so scrapes are deterministic and diffable. Each
// value is read once; a snapshot taken under concurrent updates is
// consistent per value, like any scrape.
func (r *Registry) Snapshot() *promtext.Metrics {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]promtext.Family, len(fams))
	for i, f := range fams {
		out[i] = f.collect()
	}
	return &promtext.Metrics{Families: out}
}

// WritePrometheus renders a snapshot in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return promtext.Write(w, r.Snapshot())
}

// Handler serves the snapshots source returns at GET /metrics semantics:
// any method is answered (Prometheus only GETs), content type is the
// 0.0.4 text format. Responses are gzip-encoded when the client
// advertises Accept-Encoding: gzip — scrapes are highly repetitive text,
// and the cluster gateway's federation loop pulls every node's /metrics
// each interval, so the ~10x shrink matters on the wire.
func Handler(source func() *promtext.Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(req.Header.Get("Accept-Encoding")) {
			_ = promtext.Write(w, source())
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		_ = promtext.Write(zw, source())
		_ = zw.Close()
	})
}

// acceptsGzip parses an Accept-Encoding header just far enough to honor
// "gzip" and "*" tokens, respecting an explicit q=0 refusal.
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		token, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		token = strings.TrimSpace(token)
		if token != "gzip" && token != "*" {
			continue
		}
		q := strings.TrimSpace(params)
		if q, ok := strings.CutPrefix(q, "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// family carries the shared naming/labeling machinery of the vec types.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	upper  []float64 // histogram bucket bounds; nil for other types

	mu     sync.Mutex
	byKey  map[string]*series
	series []*series // sorted by key: the exposition order
}

// series is one label combination: its metric and the label sets its
// samples carry, built once at creation so snapshots allocate none.
type series struct {
	key    string
	metric any // *Counter, *Gauge, *FloatGauge or *Histogram
	labels promtext.Labels
	le     []promtext.Labels // histograms: labels plus le, one per bucket and +Inf
}

// newFamily registers a family; names are unique per registry.
func (r *Registry) newFamily(name, help, typ string, labels []string, upper []float64) *family {
	if name == "" || strings.ContainsAny(name, " \t\n{}\"") {
		panic("metrics: invalid metric name " + name)
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, upper: upper, byKey: make(map[string]*series)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("metrics: duplicate metric " + name)
	}
	r.families[name] = f
	return f
}

// lookup returns the series for the label values, creating it with make
// on first use. 0x1f cannot appear in sane label values and keeps the
// joined key unambiguous.
func (f *family) lookup(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s.metric
	}
	s := &series{key: key, metric: make()}
	for i, name := range f.labels {
		s.labels = append(s.labels, promtext.Label{Name: name, Value: values[i]})
	}
	for i := 0; f.typ == "histogram" && i <= len(f.upper); i++ {
		le := promtext.Label{Name: "le", Value: "+Inf"}
		if i < len(f.upper) {
			le.Value = strconv.FormatFloat(f.upper[i], 'g', -1, 64)
		}
		s.le = append(s.le, append(s.labels[:len(s.labels):len(s.labels)], le))
	}
	i := sort.Search(len(f.series), func(i int) bool { return f.series[i].key >= key })
	f.series = append(f.series, nil)
	copy(f.series[i+1:], f.series[i:])
	f.series[i] = s
	f.byKey[key] = s
	return s.metric
}

// collect reads the family's series into one snapshot family.
func (f *family) collect() promtext.Family {
	out := promtext.Family{Name: f.name, Help: f.help, Type: f.typ}
	var bucket, sum, count string
	if f.typ == "histogram" {
		bucket, sum, count = f.name+"_bucket", f.name+"_sum", f.name+"_count"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		switch m := s.metric.(type) {
		case *Counter:
			out.Samples = append(out.Samples, promtext.Sample{Name: f.name, Labels: s.labels, Value: float64(m.Value()), Int: true})
		case *Gauge:
			out.Samples = append(out.Samples, promtext.Sample{Name: f.name, Labels: s.labels, Value: float64(m.Value()), Int: true})
		case *FloatGauge:
			out.Samples = append(out.Samples, promtext.Sample{Name: f.name, Labels: s.labels, Value: m.Value()})
		case *Histogram:
			cum := int64(0)
			for i := range m.counts {
				cum += m.counts[i].Load()
				out.Samples = append(out.Samples, promtext.Sample{Name: bucket, Labels: s.le[i], Value: float64(cum), Int: true})
			}
			out.Samples = append(out.Samples,
				promtext.Sample{Name: sum, Labels: s.labels, Value: m.Sum()},
				promtext.Sample{Name: count, Labels: s.labels, Value: float64(m.Count()), Int: true})
		}
	}
	return out
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// NewCounter registers a counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.newFamily(name, help, "counter", labels, nil)}
}

// With returns the series for the label values, creating it on first use.
func (cv *CounterVec) With(labelValues ...string) *Counter {
	return cv.f.lookup(labelValues, func() any { return new(Counter) }).(*Counter)
}

// Gauge is an integer that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// NewGauge registers a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.newFamily(name, help, "gauge", labels, nil)}
}

// With returns the series for the label values, creating it on first use.
func (gv *GaugeVec) With(labelValues ...string) *Gauge {
	return gv.f.lookup(labelValues, func() any { return new(Gauge) }).(*Gauge)
}

// Reset drops every series of the family, so one rebuilt from a listing
// on each scrape loses the label values that left the listing.
func (gv *GaugeVec) Reset() {
	gv.f.mu.Lock()
	gv.f.byKey, gv.f.series = make(map[string]*series), nil
	gv.f.mu.Unlock()
}

// FloatGauge is a float64 value that can be set and shifted; the value is
// stored as raw bits so reads and writes never take a lock.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop, like Histogram sums).
func (g *FloatGauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatGaugeVec is a float gauge family partitioned by labels.
type FloatGaugeVec struct{ f *family }

// NewFloatGauge registers a float gauge family — for values that are not
// naturally integers (seconds of GC pause, uptime).
func (r *Registry) NewFloatGauge(name, help string, labels ...string) *FloatGaugeVec {
	return &FloatGaugeVec{f: r.newFamily(name, help, "gauge", labels, nil)}
}

// With returns the series for the label values, creating it on first use.
func (gv *FloatGaugeVec) With(labelValues ...string) *FloatGauge {
	return gv.f.lookup(labelValues, func() any { return new(FloatGauge) }).(*FloatGauge)
}

// Histogram accumulates float observations into fixed buckets. Bucket
// counts are stored non-cumulatively and cumulated at snapshot time; the
// sum is a CAS loop over float64 bits so Observe never takes a lock.
type Histogram struct {
	upper   []float64
	counts  []atomic.Int64 // len(upper)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
	// exemplar remembers the largest observation that carried a trace ID;
	// the statusz p99 cell links it to /debug/traces. Nil until the first
	// ObserveExemplar with a non-empty ID.
	exemplar atomic.Pointer[exemplar]
}

// exemplar pairs one observation with the trace that produced it.
type exemplar struct {
	value   float64
	traceID string
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v ("le" semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty and v
// is the largest such observation so far, remembers (v, traceID) as the
// series' exemplar — the concrete trace behind the latency tail. With an
// empty traceID it is exactly Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	next := &exemplar{value: v, traceID: traceID}
	for {
		old := h.exemplar.Load()
		if old != nil && old.value >= v {
			return
		}
		if h.exemplar.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exemplar returns the largest trace-carrying observation, if any.
func (h *Histogram) Exemplar() (value float64, traceID string, ok bool) {
	e := h.exemplar.Load()
	if e == nil {
		return 0, "", false
	}
	return e.value, e.traceID, true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// NewHistogram registers a histogram family with the given bucket upper
// bounds (nil means DefBuckets). Bounds must be strictly increasing.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets not strictly increasing for " + name)
		}
	}
	return &HistogramVec{f: r.newFamily(name, help, "histogram", labels, append([]float64(nil), buckets...))}
}

// With returns the series for the label values, creating it on first use.
func (hv *HistogramVec) With(labelValues ...string) *Histogram {
	return hv.f.lookup(labelValues, func() any { return newHistogram(hv.f.upper) }).(*Histogram)
}
