package main

import (
	"bytes"
	"testing"
	"time"
)

// TestScheduleDeterministic: one seed gives one byte-identical schedule,
// and another seed a different one, for every workload.
func TestScheduleDeterministic(t *testing.T) {
	encode := func(w *workload, seed int64) []byte {
		in, err := newInputs(w, seed, 300, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encodeSchedule(&buf, in.schedule(seed, w.rate, 7*time.Second)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := encode(w, 7), encode(w, 7), encode(w, 8)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which BENCHMARK.json bounds are checked
// with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
