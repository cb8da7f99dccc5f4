package metrics

import (
	"math"
	"sync"
	"testing"

	"prefcover/internal/tsdb"
)

// Quantile and exemplar edge cases: the statusz and SLO read paths lean
// on exactly these corners.

// quantile reads a registry histogram the way statusz does without a
// monitor: tsdb.Quantile over the since-boot bucket deltas of a snapshot,
// NaN when there is no value.
func quantile(r *Registry, name string, q float64) float64 {
	v, ok := tsdb.Quantile(q, tsdb.Delta(nil, r.Snapshot(), name+"_bucket", nil))
	if !ok {
		return math.NaN()
	}
	return v
}

func TestQuantileEmptyHistogramIsNaN(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("t_q_empty", "h", []float64{1, 2}).With()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile(r, "t_q_empty", q); !math.IsNaN(got) {
			t.Errorf("Quantile(%g) on empty histogram = %g, want NaN", q, got)
		}
	}
}

func TestQuantileNaNInput(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_q_nan", "h", []float64{1}).With()
	h.Observe(0.5)
	if got := quantile(r, "t_q_nan", math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %g, want NaN", got)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_q_single", "h", []float64{10}).With()
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	// All mass sits in [0,10]; interpolation is linear across the bucket.
	if got := quantile(r, "t_q_single", 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := quantile(r, "t_q_single", 1); got != 10 {
		t.Errorf("p100 = %g, want upper bound 10", got)
	}
	if got := quantile(r, "t_q_single", 0); got != 0 {
		t.Errorf("p0 = %g, want lower bound 0", got)
	}
}

func TestQuantileClampsOutOfRangeQ(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_q_clamp", "h", []float64{1, 2}).With()
	h.Observe(0.5)
	if got, want := quantile(r, "t_q_clamp", -3), quantile(r, "t_q_clamp", 0); got != want {
		t.Errorf("Quantile(-3) = %g, want %g (clamped to 0)", got, want)
	}
	if got, want := quantile(r, "t_q_clamp", 7), quantile(r, "t_q_clamp", 1); got != want {
		t.Errorf("Quantile(7) = %g, want %g (clamped to 1)", got, want)
	}
}

func TestQuantileP100AndOverflowClamp(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_q_overflow", "h", []float64{1, 2}).With()
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // lands in +Inf overflow
	// Any rank falling in the overflow bucket clamps to the highest
	// finite bound rather than reporting +Inf.
	if got := quantile(r, "t_q_overflow", 1); got != 2 {
		t.Errorf("p100 with overflow = %g, want clamp to 2", got)
	}
	if got := quantile(r, "t_q_overflow", 0.99); got != 2 {
		t.Errorf("p99 with overflow = %g, want clamp to 2", got)
	}
}

func TestExemplarTracksMax(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_exemplar", "h", []float64{1}).With()

	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram reports an exemplar")
	}
	h.Observe(100) // plain Observe never sets an exemplar
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("Observe set an exemplar")
	}
	h.ObserveExemplar(0.2, "") // empty trace ID: counted, no exemplar
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("empty trace ID set an exemplar")
	}
	h.ObserveExemplar(0.5, "trace-a")
	h.ObserveExemplar(0.3, "trace-b") // smaller: must not replace
	if v, id, ok := h.Exemplar(); !ok || id != "trace-a" || v != 0.5 {
		t.Fatalf("exemplar = (%g, %q, %v), want (0.5, trace-a, true)", v, id, ok)
	}
	h.ObserveExemplar(0.9, "trace-c") // larger: replaces
	if v, id, ok := h.Exemplar(); !ok || id != "trace-c" || v != 0.9 {
		t.Fatalf("exemplar = (%g, %q, %v), want (0.9, trace-c, true)", v, id, ok)
	}
	// Exemplar observations still count toward the histogram.
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
}

func TestExemplarConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_exemplar_race", "h", []float64{1}).With()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.ObserveExemplar(float64(i*200+j), "t")
			}
		}(i)
	}
	wg.Wait()
	v, _, ok := h.Exemplar()
	if !ok || v != 8*200-1 {
		t.Fatalf("exemplar after concurrent max race = (%g, %v), want %d", v, ok, 8*200-1)
	}
}
