package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"prefcover/internal/graph"
	"prefcover/internal/greedy"
)

// checkSolution checks one answer to o on an n-node graph: the order
// starts with the pins and holds distinct items, cover is the sum of the
// gains, a budget solve returns min(k, n) items, and a threshold solve
// stops at the first prefix whose cover reaches the threshold, exactly as
// the solver does (graph.Eps below it).
func checkSolution(o op, n int, s *solution) error {
	if s == nil {
		return fmt.Errorf("no solution")
	}
	if len(s.Gains) != len(s.Order) || s.K != len(s.Order) {
		return fmt.Errorf("k=%d with %d items and %d gains", s.K, len(s.Order), len(s.Gains))
	}
	for i, p := range o.Pins {
		if i >= len(s.Order) || s.Order[i] != p {
			return fmt.Errorf("order does not start with pins %v", o.Pins)
		}
	}
	seen := make(map[string]bool, len(s.Order))
	var cover, before float64
	for i, item := range s.Order {
		if seen[item] {
			return fmt.Errorf("item %s retained twice", item)
		}
		seen[item] = true
		before = cover
		cover += s.Gains[i]
	}
	if math.Abs(cover-s.Cover) > 1e-9 {
		return fmt.Errorf("cover %v is not the sum of the gains %v", s.Cover, cover)
	}
	if o.T == 0 {
		if want := min(o.K, n); len(s.Order) != want {
			return fmt.Errorf("budget %d on %d nodes returned %d items", o.K, n, len(s.Order))
		}
		return nil
	}
	if !s.Reached || cover < o.T-graph.Eps {
		return fmt.Errorf("threshold %v not reached (cover %v)", o.T, cover)
	}
	if len(s.Order) > len(o.Pins) && before >= o.T-graph.Eps {
		return fmt.Errorf("threshold %v already reached one item before the end", o.T)
	}
	return nil
}

// lineage identifies answers that must be prefixes of one ordered
// greedy solution: one graph version and one pin sequence.
type lineage struct {
	graph, version int
	pins           string
}

// lineages holds the longest order seen per lineage.
type lineages map[lineage][]string

// consistent reports whether order and the lineage's longest order are
// prefixes of one another.
func (l lineages) consistent(k lineage, order []string) bool {
	long := l[k]
	for i := 0; i < min(len(long), len(order)); i++ {
		if long[i] != order[i] {
			return false
		}
	}
	return true
}

func (l lineages) add(k lineage, order []string) {
	if len(order) > len(l[k]) {
		l[k] = order
	}
}

// checkSamples runs the per-answer oracle over one deployment's samples
// and records every failure in res. A refresh answer whose request
// overlapped a re-upload may come from either version: it must fit one of
// them, and counts toward a lineage only when the version is certain.
func (r *runner) checkSamples(samples []sample) {
	type put struct {
		version    int
		sent, done int64
	}
	var puts []put
	for i := range samples {
		if s := &samples[i]; s.op.Kind == opPut && s.err == nil {
			puts = append(puts, put{s.op.Version, s.sent.UnixNano(), s.done.UnixNano()})
		}
	}
	seen := lineages{}
	for i := range samples {
		s := &samples[i]
		if s.op.Kind == opPut || s.err != nil {
			continue
		}
		lo, hi := 0, 0 // versions the answer may come from
		for _, p := range puts {
			if p.done < s.sent.UnixNano() {
				lo = max(lo, p.version)
			}
			if p.sent < s.done.UnixNano() {
				hi = max(hi, p.version)
			}
		}
		if err := checkSolution(s.op, r.in.graphs[s.op.Graph].NumNodes(), s.sol); err != nil {
			r.res.wrong("%s %+v: %v", s.op.Kind, s.op, err)
			continue
		}
		fits := 0
		var key lineage
		for v := lo; v <= hi; v++ {
			k := lineage{s.op.Graph, v, strings.Join(s.op.Pins, ",")}
			if seen.consistent(k, s.sol.Order) {
				fits++
				key = k
			}
		}
		switch {
		case fits == 0:
			r.res.wrong("%s %+v: order is not a prefix of its lineage's longest order", s.op.Kind, s.op)
		case lo == hi:
			seen.add(key, s.sol.Order)
		}
	}
}

// oracleQueries is how many solves each run compares with the scan solve.
const oracleQueries = 20

// oracle sends oracleQueries seeded solves after the timed window and
// compares each answer byte for byte with greedy.Solve under the scan
// strategy (the paper's Algorithm 1 on internal/cover) on the bench's own
// copy of the graph version the deployment holds.
func (r *runner) oracle(ctx context.Context, url string, version int) []sample {
	next := r.solveOps(streamOracle)
	ops := make([]op, oracleQueries)
	for i := range ops {
		ops[i] = next()
	}
	want := make([]*greedy.Solution, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	work := make(chan int, len(ops)) // holds every query, so filling it never blocks
	for i := range ops {
		work <- i
	}
	close(work)
	wg.Add(r.senders)
	for w := 0; w < r.senders; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				want[i], errs[i] = scanSolve(r.in.current(ops[i].Graph, version), ops[i])
			}
		}()
	}
	wg.Wait()

	c := newClient(url, 1)
	defer c.close()
	out := make([]sample, len(ops))
	for i, o := range ops {
		s := &out[i]
		s.op = o
		if errs[i] != nil {
			s.err = fmt.Errorf("oracle solve: %w", errs[i])
			continue
		}
		r.send(ctx, c, s)
		if s.err != nil {
			continue
		}
		g := r.in.current(o.Graph, version)
		if !sameSolution(g, want[i], s.sol) {
			r.res.wrong("oracle query %+v: answer differs from the scan solve", o)
		}
	}
	return out
}

func scanSolve(g *graph.Graph, o op) (*greedy.Solution, error) {
	pins := make([]int32, len(o.Pins))
	for i, p := range o.Pins {
		v, ok := g.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("unknown pin %s", p)
		}
		pins[i] = v
	}
	return greedy.Solve(g, greedy.Options{Variant: graphVariant, K: o.K, Threshold: o.T,
		Pinned: pins, Strategy: greedy.StrategyScan})
}

// sameSolution compares labels and gains bit for bit.
func sameSolution(g *graph.Graph, want *greedy.Solution, got *solution) bool {
	if got == nil || len(got.Order) != len(want.Order) {
		return false
	}
	for i, v := range want.Order {
		if got.Order[i] != g.Label(v) || math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
			return false
		}
	}
	return true
}
