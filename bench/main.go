// Command bench is the serving benchmark of cmd/prefcoverd. For each
// workload it boots fresh daemon processes from a prebuilt binary, drives
// them over loopback from this one process with one connection per CPU,
// checks every answer against an oracle, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
//
// run.sh builds both binaries and runs it from the repository root:
//
//	bash bench/run.sh -workload cold-pins -seed 1 -seconds 24 -trace 0
//
// -trace 1 is the traced run: it prints the per-layer metrics instead of
// the end-to-end ones and writes the spans as Chrome trace-event JSON to
// .bench_build/trace-<workload>-<seed>.json.
// -runs N repeats each workload over N seeds and prints every metric's
// quartiles; with -check BENCHMARK.json it also checks each spread against
// the file's bound. README.md documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	daemon   string
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	check    string
	// Set by TestSmoke only, to run small: the trace file (default
	// .bench_build/trace-<workload>-<seed>.json), a node cap on every
	// graph and an open-loop rate in place of the workload's.
	traceOut string
	nodes    int
	rate     float64
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json names, in report
// order; an untraced run prints the first, a traced run the second.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"solve_p50_ms", "ms"}, {"solve_tput_rps", "1/s"},
	{"cpu_ms_per_op", "ms"}, {"rss_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"solve_p99_ms", "ms"}, {"put_p50_ms", "ms"}, {"job_p50_ms", "ms"},
	{"server.handler_p50_ms", "ms"}, {"server.self_p50_ms", "ms"},
	{"server.resp_kb_per_solve", "KiB"}, {"server.transport_p50_ms", "ms"},
	{"cover.coverage_p50_ms", "ms"},
	{"solvecache.hit_ratio", "ratio"}, {"solvecache.coalesced_ratio", "ratio"},
	{"solvecache.solves_per_miss", "ratio"}, {"solvecache.lookup_p50_us", "us"},
	{"greedy.solve_p50_ms", "ms"}, {"greedy.solve_p99_ms", "ms"}, {"greedy.gain_evals_per_solve", "count"},
	{"greedy.reevals_per_solve", "count"}, {"greedy.cpu_ms_per_solve", "ms"}, {"greedy.alloc_kb_per_solve", "KiB"},
	{"graph.decode_ms_per_mb", "ms/MiB"}, {"store.put_p50_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"}, {"jobs.run_p50_ms", "ms"},
	{"runtime.gc_pause_ms_per_1k_ops", "ms"}, {"runtime.heap_peak_mb", "MiB"}, {"runtime.cpu_util", "ratio"},
	{"bench.send_lag_p99_ms", "ms"}, {"bench.conn_wait_p99_ms", "ms"}, {"bench.trace_overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.daemon, "daemon", "", "prefcoverd binary to benchmark (run.sh builds it)")
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (empty = all)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 24, "measured seconds per run (run_seconds in BENCHMARK.json)")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file")
	fs.IntVar(&cfg.runs, "runs", 1, "runs per workload, seeds seed..seed+runs-1; >1 prints quartiles")
	fs.StringVar(&cfg.check, "check", "", "BENCHMARK.json whose bounds the repeated runs' spreads are checked against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see bench/run.sh")
		return 2
	}
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs the benchmark as cfg says and returns the exit status.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	if cfg.daemon == "" || cfg.seconds <= 0 || cfg.trace < 0 || cfg.trace > 1 || cfg.runs < 1 {
		fmt.Fprintln(stderr, "bench: need -daemon, -seconds > 0, -trace 0|1 and -runs >= 1; see bench/run.sh")
		return 2
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var ws []*workload
	if cfg.workload == "" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if cfg.runs > 1 || cfg.check != "" {
		return repeat(cfg, ws, stdout, stderr)
	}

	total := summary{Metrics: map[string]jsonMetric{}, Correct: true}
	for _, w := range ws {
		res, err := runOnce(cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		s := report(stdout, cfg, w, res)
		if len(ws) == 1 {
			total = s
			break
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for name, m := range s.Metrics {
			total.Metrics[w.name+"/"+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runOnce measures w once, traced or not, at cfg.seed.
func runOnce(cfg config, w *workload) (*result, error) {
	in, err := newInputs(w, cfg.seed, cfg.nodes, int(cfg.duration()/refreshEvery)+2)
	if err != nil {
		return nil, err
	}
	// Collect the synthesis garbage now rather than beside the first set-up.
	runtime.GC()
	r := &runner{cfg: cfg, w: w, in: in, senders: runtime.NumCPU(), rate: w.rate, res: newResult()}
	if cfg.rate > 0 {
		r.rate = cfg.rate
	}
	ctx := context.Background()
	if cfg.trace == 1 {
		tr := newTracer()
		if err := r.measureTraced(ctx, tr); err != nil {
			return nil, err
		}
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
		r.res.note("trace: %d spans written to %s", len(tr.spans), path)
	} else if err := r.measure(ctx); err != nil {
		return nil, err
	}
	r.res.set("failed_ratio", float64(r.res.failed)/float64(max(r.res.attempted, 1)))
	return r.res, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON result line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func metricsFor(cfg config) []metricDef {
	if cfg.trace == 1 {
		return perLayer
	}
	return endToEnd
}

// report prints one run's metrics and notes and returns its summary.
func report(w io.Writer, cfg config, wl *workload, res *result) summary {
	s := summary{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%d: %d ops attempted, %d failed\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, res.attempted, res.failed)
	for _, m := range metricsFor(cfg) {
		v := res.values[m.name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, v, m.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a metric every request of which failed
			// reads as the largest finite number.
			v = math.MaxFloat64
		}
		s.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "# WRONG: "+p)
	}
	return s
}

// repeat runs every workload cfg.runs times over consecutive seeds and
// prints each metric's median, quartiles and spread (interquartile range
// over median); with cfg.check, a spread above the metric's bound in that
// file fails.
func repeat(cfg config, ws []*workload, stdout, stderr io.Writer) int {
	bounds := map[string]float64{}
	if cfg.check != "" {
		data, err := os.ReadFile(cfg.check)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	ok := true
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < cfg.runs; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runOnce(c, w)
			if err == nil && len(res.problems) > 0 {
				err = errors.New(res.problems[0])
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, c.seed, err)
				ok = false
				continue
			}
			for _, m := range metricsFor(cfg) {
				values[m.name] = append(values[m.name], res.values[m.name])
			}
		}
		fmt.Fprintf(stdout, "# %s: %d runs from seed %d, %g s each\n", w.name, cfg.runs, cfg.seed, cfg.seconds)
		fmt.Fprintf(stdout, "%-32s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range metricsFor(cfg) {
			xs := values[m.name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := ""
			if b, has := bounds[m.name]; has {
				verdict = "pass"
				if spread > b {
					verdict, ok = "FAIL", false
				}
				fmt.Fprintf(stdout, "%-32s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", m.name, q1, q2, q3, spread, b, verdict)
				continue
			}
			fmt.Fprintf(stdout, "%-32s %12.4f %12.4f %12.4f %8.4f %6s %s\n", m.name, q1, q2, q3, spread, "-", verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
