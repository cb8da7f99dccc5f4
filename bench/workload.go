package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"prefcover/internal/graph"
	"prefcover/internal/greedy"
	"prefcover/internal/synth"
)

// mix names a workload's traffic mix; draw turns it into ops.
type mix int

const (
	// mixWarm: 80% budget solves k~U[1,200], 20% threshold solves
	// t~U[0.05,tMax], all answerable from the warm-up's cached prefix.
	mixWarm mix = iota
	// mixColdPins: a graph drawn by share, k~U[10,100] and 1-3 distinct
	// pins from that graph's heaviest nodes, so almost every lineage is new.
	mixColdPins
	// mixRefresh: 90% solves k~U[1,200], 10% async jobs k~U[200,1000],
	// beside a re-upload of the graph every refreshEvery.
	mixRefresh
)

// graphSpec is one registry graph of a workload.
type graphSpec struct {
	name   string
	preset synth.Preset
	scale  float64
	binary bool    // upload in the binary codec instead of JSON
	share  float64 // fraction of requests addressed to this graph
}

// workload is one traffic mix against one deployment. rate is the
// open-loop arrival rate, a quarter to a third of the closed-loop
// throughput the workload reached when the benchmark was defined (at half,
// the host's slow periods push the daemon near saturation and latencies
// stop repeating); it stays fixed so later changes are measured at the
// same offered load.
type workload struct {
	name    string
	mix     mix
	graphs  []graphSpec
	rate    float64
	gateway bool // serve through prefcoverd -gateway over two nodes
}

// ycGraph is the YooChoose-shaped catalog at full Table 2 size (52,739
// items).
var ycGraph = graphSpec{name: "yc", preset: synth.YC, scale: 1, share: 1}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists. warm-catalog and gateway share one rate, set from the lower of
// their two closed-loop throughputs, so their solve latencies compare like
// for like and the difference is the gateway hop.
var workloads = []workload{
	{name: "warm-catalog", mix: mixWarm, graphs: []graphSpec{ycGraph}, rate: 120},
	{name: "cold-pins", mix: mixColdPins, graphs: []graphSpec{
		{name: "pe-20k", preset: synth.PE, scale: 0.0104, binary: true, share: 0.5},
		{name: "yc", preset: synth.YC, scale: 1, binary: true, share: 0.3},
		{name: "pe-200k", preset: synth.PE, scale: 0.104, binary: true, share: 0.2},
	}, rate: 100},
	{name: "refresh", mix: mixRefresh, graphs: []graphSpec{ycGraph}, rate: 100},
	{name: "gateway", mix: mixWarm, graphs: []graphSpec{ycGraph}, rate: 120, gateway: true},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

const (
	maxWarmK       = 200 // largest budget of a warm or refresh solve
	heavyPins      = 1000
	refreshEvery   = 3 * time.Second
	probeEvery     = 250 * time.Millisecond
	minThreshold   = 0.05
	variantParam   = "i" // every workload solves the Independent variant
	graphVariant   = graph.Independent
	labelPrefix    = "sku-"
	reweightSpread = 0.5 // refresh versions scale each node weight by U[1-s, 1+s]
)

// opKind is what one scheduled op does.
type opKind string

const (
	opSolve opKind = "solve" // POST /v1/solve by graph_ref
	opJob   opKind = "job"   // POST /v1/jobs, then poll to a terminal state
	opPut   opKind = "put"   // PUT /v1/graphs/{name}: a refresh re-upload
)

// op is one scheduled request. T > 0 makes a solve a threshold query;
// Version is the refresh version a put uploads.
type op struct {
	At      time.Duration
	Kind    opKind
	Graph   int
	K       int
	T       float64
	Pins    []string
	Version int
}

// Seeded streams: each use of randomness draws from its own stream so
// that, for example, lengthening the open phase leaves the oracle queries
// unchanged.
const (
	streamGraphs = iota
	streamOpen
	streamClosed
	streamOracle
	streamProbe
	streamVersions
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + int64(stream)))
}

// inputs are a workload's generated inputs for one seed.
type inputs struct {
	w      *workload
	graphs []*graph.Graph
	bodies [][]byte
	heavy  [][]string // each graph's heaviest labels: the cold-pins pin pool
	tMax   float64    // largest drawable threshold: the cover of the warm-up prefix
	// versions[v] is the refresh graph after the v-th re-upload
	// (versions[0] is graphs[0]); vbodies holds their upload bodies.
	versions []*graph.Graph
	vbodies  [][]byte
}

// newInputs synthesizes the workload's graphs for seed. maxNodes > 0 caps
// every graph's node count; versions is how many refresh re-uploads the
// run may issue.
func newInputs(w *workload, seed int64, maxNodes, versions int) (*inputs, error) {
	in := &inputs{w: w}
	rng := newRand(seed, streamGraphs)
	for _, gs := range w.graphs {
		spec, err := synth.PresetGraphSpec(gs.preset, gs.scale, rng.Int63())
		if err != nil {
			return nil, err
		}
		if maxNodes > 0 && spec.Nodes > maxNodes {
			spec.Nodes = maxNodes
		}
		base, err := synth.GenerateGraph(spec)
		if err != nil {
			return nil, err
		}
		g, err := labeled(base, base.NodeWeights())
		if err != nil {
			return nil, err
		}
		body, err := encodeGraph(g, gs.binary)
		if err != nil {
			return nil, err
		}
		in.graphs = append(in.graphs, g)
		in.bodies = append(in.bodies, body)
		in.heavy = append(in.heavy, heaviest(g, heavyPins))
	}
	if w.mix == mixWarm {
		sol, err := greedy.Solve(in.graphs[0], greedy.Options{Variant: graphVariant, K: maxWarmK, Strategy: greedy.StrategyLazyFlat})
		if err != nil {
			return nil, err
		}
		in.tMax = sol.PrefixCover()[len(sol.Order)]
	}
	if w.mix == mixRefresh {
		in.versions = []*graph.Graph{in.graphs[0]}
		in.vbodies = [][]byte{in.bodies[0]}
		vrng := newRand(seed, streamVersions)
		for v := 1; v <= versions; v++ {
			g, err := labeled(in.graphs[0], reweighted(in.graphs[0], vrng))
			if err != nil {
				return nil, err
			}
			body, err := encodeGraph(g, w.graphs[0].binary)
			if err != nil {
				return nil, err
			}
			in.versions = append(in.versions, g)
			in.vbodies = append(in.vbodies, body)
		}
	}
	return in, nil
}

// labeled rebuilds g with node v labeled sku-<v> and the given weights.
// Labels keep pins and responses in the item namespace clients use.
func labeled(g *graph.Graph, weights []float64) (*graph.Graph, error) {
	n := g.NumNodes()
	b := graph.NewBuilder(n, g.NumEdges())
	for v := 0; v < n; v++ {
		b.AddLabeledNode(labelPrefix+strconv.Itoa(v), weights[v])
	}
	for v := int32(0); v < int32(n); v++ {
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			b.AddEdge(v, u, ws[i])
		}
	}
	return b.Build(graph.BuildOptions{})
}

// reweighted redraws g's node weights around their current values and
// renormalizes them, so a refresh version has new content (a new hash)
// and the same labels and edges.
func reweighted(g *graph.Graph, rng *rand.Rand) []float64 {
	out := make([]float64, g.NumNodes())
	var sum float64
	for v, w := range g.NodeWeights() {
		out[v] = w * (1 - reweightSpread + 2*reweightSpread*rng.Float64())
		sum += out[v]
	}
	for v := range out {
		out[v] /= sum
	}
	return out
}

func encodeGraph(g *graph.Graph, binary bool) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if binary {
		err = graph.WriteBinary(&buf, g)
	} else {
		err = graph.WriteJSON(&buf, g)
	}
	return buf.Bytes(), err
}

// heaviest returns the labels of g's n heaviest nodes, ties to the lower id.
func heaviest(g *graph.Graph, n int) []string {
	ids := make([]int32, g.NumNodes())
	for i := range ids {
		ids[i] = int32(i)
	}
	w := g.NodeWeights()
	sort.SliceStable(ids, func(a, b int) bool { return w[ids[a]] > w[ids[b]] })
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]string, n)
	for i, v := range ids[:n] {
		out[i] = g.Label(v)
	}
	return out
}

// contentType is the upload media type of graph i.
func (in *inputs) contentType(i int) string {
	if in.w.graphs[i].binary {
		return "application/octet-stream"
	}
	return "application/json"
}

// current is the graph an op addressed to graph i is answered from after
// version v of the refresh graph was uploaded.
func (in *inputs) current(i, v int) *graph.Graph {
	if in.w.mix == mixRefresh {
		return in.versions[v]
	}
	return in.graphs[i]
}

// draw draws one solve or job op of the workload's mix.
func (in *inputs) draw(rng *rand.Rand) op {
	switch in.w.mix {
	case mixColdPins:
		x, g := rng.Float64(), 0
		for g < len(in.w.graphs)-1 && x >= in.w.graphs[g].share {
			x -= in.w.graphs[g].share
			g++
		}
		return in.drawPinned(rng, g)
	case mixRefresh:
		if rng.Float64() < 0.9 {
			return op{Kind: opSolve, K: 1 + rng.Intn(maxWarmK)}
		}
		return op{Kind: opJob, K: 200 + rng.Intn(801)}
	default:
		if rng.Float64() < 0.8 {
			return op{Kind: opSolve, K: 1 + rng.Intn(maxWarmK)}
		}
		return op{Kind: opSolve, T: minThreshold + rng.Float64()*(in.tMax-minThreshold)}
	}
}

// drawPinned draws a cold-pins solve on graph g: k~U[10,100] and 1-3
// distinct pins from the graph's heaviest nodes.
func (in *inputs) drawPinned(rng *rand.Rand, g int) op {
	o := op{Kind: opSolve, Graph: g, K: 10 + rng.Intn(91)}
	pool := in.heavy[g]
	for want := 1 + rng.Intn(3); len(o.Pins) < want && len(o.Pins) < len(pool); {
		if p := pool[rng.Intn(len(pool))]; !contains(o.Pins, p) {
			o.Pins = append(o.Pins, p)
		}
	}
	return o
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// warmup is the set-up's solves: the largest budget (and, for the warm
// mix, the largest threshold) the schedule can draw, or one unpinned solve
// per graph for cold-pins.
func (in *inputs) warmup() []op {
	switch in.w.mix {
	case mixColdPins:
		var ops []op
		for g := range in.graphs {
			ops = append(ops, op{Kind: opSolve, Graph: g, K: 100})
		}
		return ops
	case mixRefresh:
		return []op{{Kind: opSolve, K: maxWarmK}}
	default:
		return []op{{Kind: opSolve, K: maxWarmK}, {Kind: opSolve, T: in.tMax}}
	}
}

// refreshPuts are refresh's re-uploads over dur, one every refreshEvery;
// the other mixes upload only at set-up.
func (in *inputs) refreshPuts(dur time.Duration) []op {
	var ops []op
	for at := refreshEvery; in.w.mix == mixRefresh && at < dur; at += refreshEvery {
		ops = append(ops, op{At: at, Kind: opPut})
	}
	return ops
}

// schedule is the open-loop plan for dur: Poisson arrivals at rate with
// ops drawn from the mix. Refresh adds its re-uploads; the other mixes
// have no jobs of their own and add a probe job every probeEvery, drawn
// like a solve, so every workload reports job turnaround sampled across
// the whole phase. Cold-pins probes take the graphs in turn rather than
// by share: with half the draws on the smallest graph, the median job
// would sit on the boundary between two graph sizes and jump between
// them from seed to seed.
func (in *inputs) schedule(seed int64, rate float64, dur time.Duration) []op {
	rng := newRand(seed, streamOpen)
	var ops []op
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		o := in.draw(rng)
		o.At = at
		ops = append(ops, o)
	}
	if in.w.mix == mixRefresh {
		ops = append(ops, in.refreshPuts(dur)...)
	} else {
		prng := newRand(seed, streamProbe)
		for i, at := 0, probeEvery/2; at < dur; i, at = i+1, at+probeEvery {
			var o op
			if in.w.mix == mixColdPins {
				o = in.drawPinned(prng, i%len(in.graphs))
			} else {
				o = in.draw(prng)
			}
			o.At, o.Kind = at, opJob
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// slices cuts a schedule of n*length into n schedules of length each, op
// times relative to their slice.
func slices(ops []op, n int, length time.Duration) [][]op {
	out := make([][]op, n)
	for _, o := range ops {
		k := min(int(o.At/length), n-1)
		o.At -= time.Duration(k) * length
		out[k] = append(out[k], o)
	}
	return out
}

// numberVersions gives the re-uploads in the slices, taken in the order
// given, the versions 1, 2, ..., so versions rise in the order they are
// sent.
func numberVersions(groups ...[]op) {
	v := 0
	for _, g := range groups {
		for i := range g {
			if g[i].Kind == opPut {
				v++
				g[i].Version = v
			}
		}
	}
}

// encodeSchedule writes one line per op; equal schedules encode to equal
// bytes.
func encodeSchedule(w io.Writer, ops []op) error {
	for _, o := range ops {
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\t%s\t%d\n", o.At.Nanoseconds(), o.Kind, o.Graph, o.K,
			strconv.FormatFloat(o.T, 'g', -1, 64), strings.Join(o.Pins, ","), o.Version); err != nil {
			return err
		}
	}
	return nil
}
