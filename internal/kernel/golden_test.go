package kernel_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"prefcover/internal/budgeted"
	"prefcover/internal/graph"
	"prefcover/internal/greedy"
	"prefcover/internal/quota"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solvers.golden from the current solvers")

// goldenPath holds one line per variant × corpus graph × solver: the first
// 16 bytes of a SHA-256 over every output bit the solver returns for that
// graph, pinned and unpinned where the solver takes pins.
const goldenPath = "testdata/solvers.golden"

// record hashes solver outputs bit for bit: node ids, float64 bits and
// counters in a fixed little-endian layout.
type record struct {
	h   hash.Hash
	buf [8]byte
}

func (r *record) u64(x uint64) {
	binary.LittleEndian.PutUint64(r.buf[:], x)
	r.h.Write(r.buf[:])
}

func (r *record) f64(x float64) { r.u64(math.Float64bits(x)) }

func (r *record) bit(b bool) {
	if b {
		r.u64(1)
	} else {
		r.u64(0)
	}
}

func (r *record) str(s string) {
	r.u64(uint64(len(s)))
	r.h.Write([]byte(s))
}

func (r *record) prefix(order []int32, gains []float64, cover float64) {
	r.u64(uint64(len(order)))
	for i, v := range order {
		r.u64(uint64(uint32(v)))
		r.f64(gains[i])
	}
	r.f64(cover)
}

func (r *record) solution(sol *greedy.Solution) {
	r.prefix(sol.Order, sol.Gains, sol.Cover)
	r.u64(uint64(sol.GainEvals))
	r.bit(sol.Reached)
	r.u64(uint64(len(sol.Coverage)))
	for _, c := range sol.Coverage {
		r.f64(c)
	}
}

// quotaSpec puts node v in group v%3 with a cap on groups 0 and 2 and
// floors on groups 0 and 1, all within budget k.
func quotaSpec(n, k int, variant graph.Variant) quota.Spec {
	group := make([]int32, n)
	for v := range group {
		group[v] = int32(v % 3)
	}
	floors := []int{1, k / 4, 0}
	if k == 1 {
		floors[1] = 0
	}
	return quota.Spec{
		Variant:     variant,
		K:           k,
		Group:       group,
		MaxPerGroup: []int{max(1, k/2), 0, max(1, k/3)},
		MinPerGroup: floors,
	}
}

// budgetSpec is one budgeted.Spec the golden runs, by name.
type budgetSpec struct {
	name string
	spec budgeted.Spec
}

// budgetSpecs returns a unit-revenue, unit-cost spec (budget k) and a
// priced one whose revenues rescale the graph.
func budgetSpecs(n, k int, variant graph.Variant) []budgetSpec {
	revenue := make([]float64, n)
	cost := make([]float64, n)
	for v := range revenue {
		revenue[v] = 0.5 + 0.5*float64(v%4)
		cost[v] = 1 + 0.5*float64(v%3)
	}
	return []budgetSpec{
		{"unit", budgeted.Spec{Variant: variant, Budget: float64(k)}},
		{"priced", budgeted.Spec{Variant: variant, Revenue: revenue, Cost: cost, Budget: 1.25 * float64(k)}},
	}
}

// greedyRun is one greedy.Solve configuration the golden pins, run pinned
// and unpinned.
type greedyRun struct {
	name string
	opts greedy.Options
}

func greedyRuns() []greedyRun {
	runs := []greedyRun{
		{"scan", greedy.Options{Strategy: greedy.StrategyScan}},
		{"parallel", greedy.Options{Strategy: greedy.StrategyParallel, Workers: 3}},
		{"lazy", greedy.Options{}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		runs = append(runs, greedyRun{fmt.Sprintf("stochastic-%d", seed), greedy.Options{StochasticEpsilon: 0.2, Seed: seed}})
	}
	return runs
}

// budgetedRuns are the budgeted solvers the golden pins; partial
// enumeration runs only on graphs of at most 40 nodes.
var budgetedRuns = []struct {
	name     string
	maxNodes int
	solve    func(*graph.Graph, budgeted.Spec) (*budgeted.Result, error)
}{
	{"budgeted", math.MaxInt, budgeted.Solve},
	{"partialenum", 40, func(g *graph.Graph, spec budgeted.Spec) (*budgeted.Result, error) {
		return budgeted.SolvePartialEnum(g, spec, 0)
	}},
}

// goldenLines runs every pinned solver over the differential corpus and
// returns one "variant/graph/solver digest" line per run group.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	emit := func(name string, fill func(r *record) error) {
		r := &record{h: sha256.New()}
		if err := fill(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+" "+hex.EncodeToString(r.h.Sum(nil)[:16]))
	}
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		for _, dg := range corpus(t, variant) {
			n := dg.g.NumNodes()
			pinSets := [][]int32{nil}
			if p := pinsFor(n, dg.k); p != nil {
				pinSets = append(pinSets, p)
			}
			name := variant.String() + "/" + dg.name + "/"
			for _, run := range greedyRuns() {
				emit(name+run.name, func(r *record) error {
					for pi, pins := range pinSets {
						opts := run.opts
						opts.Variant, opts.K, opts.Pinned = variant, dg.k, pins
						sol, err := greedy.Solve(dg.g, opts)
						if err != nil {
							return err
						}
						r.u64(uint64(pi))
						r.solution(sol)
					}
					return nil
				})
			}
			emit(name+"quota", func(r *record) error {
				res, err := quota.Solve(dg.g, quotaSpec(n, dg.k, variant))
				if err != nil {
					return err
				}
				r.prefix(res.Order, res.Gains, res.Cover)
				for _, c := range res.GroupCounts {
					r.u64(uint64(c))
				}
				r.bit(res.FloorsSatisfied)
				return nil
			})
			for _, run := range budgetedRuns {
				if n > run.maxNodes {
					continue
				}
				emit(name+run.name, func(r *record) error {
					for _, bs := range budgetSpecs(n, dg.k, variant) {
						res, err := run.solve(dg.g, bs.spec)
						if err != nil {
							return err
						}
						r.str(bs.name)
						r.prefix(res.Order, res.Gains, res.Revenue)
						r.f64(res.CostUsed)
						r.str(res.Strategy)
					}
					return nil
				})
			}
		}
	}
	return lines
}

// TestSolverOutputsGolden pins the exact outputs of every solver that runs
// on the incremental engine: order, gain bits, cover bits, and for greedy
// also GainEvals, Reached and the coverage report. The golden was captured
// before scan, stochastic, quota and budgeted moved from cover.Engine onto
// kernel.State, so it holds that switch to the same bytes. Regenerate with
// -update-golden only for a change meant to alter solver output.
func TestSolverOutputsGolden(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("solver output differs from the golden:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
