// Command benchjson seeds the repository's performance trajectory: it
// runs the curated solver benchmarks from bench_test.go via `go test
// -bench`, parses the output, and writes a machine-readable snapshot
// (BENCH_solver.json by default) stamped with the git revision and Go
// toolchain — so any future hot-path change can be judged against the
// recorded ns/op and allocs/op instead of folklore. Driven by
// `make bench-json`; `make ci` runs a reduced smoke invocation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultBench curates the kernels worth tracking over time: the
// per-variant gain kernels (the innermost loop of everything), the
// lazy-vs-scan and incremental-vs-scratch ablations (Section 5.4's cost
// accounting), the small greedy end-to-end, the minimization drivers,
// the public facade and the serving paths, down to one SLO self-scrape.
const defaultBench = "^(BenchmarkGainKernels|BenchmarkAblationLazyVsScan|BenchmarkAblationIncremental|BenchmarkFig4aGreedySmall|BenchmarkPublicSolve|BenchmarkFig4fMinCover|BenchmarkSolveCacheHitVsMiss|BenchmarkSolveResponse|BenchmarkRemoteSolveWithRetries|BenchmarkTracePropagationOverhead|BenchmarkProfileLabelOverhead|BenchmarkSelfScrape)$"

// File is the BENCH_*.json document.
type File struct {
	SchemaVersion int    `json:"schemaVersion"`
	Generated     string `json:"generated"` // RFC 3339
	GitSHA        string `json:"gitSHA"`
	GoVersion     string `json:"goVersion"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUs          int    `json:"cpus"`
	Bench         string `json:"bench"`     // -bench pattern used
	Benchtime     string `json:"benchtime"` // -benchtime used
	Count         int    `json:"count,omitempty"`
	Package       string `json:"package"`

	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_solver.json", "output JSON file")
		bench     = flag.String("bench", defaultBench, "benchmark pattern passed to go test -bench")
		benchtime = flag.String("benchtime", "", "value passed to go test -benchtime (default 20x; in -gate mode, the baseline's recorded benchtime)")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
		count     = flag.Int("count", 1, "value passed to go test -count (in -gate mode the per-name minimum over repetitions is compared)")
		quiet     = flag.Bool("quiet", false, "suppress the go test output relay on stderr")
		gate      = flag.String("gate", "", "baseline BENCH_*.json: run the benchmarks and fail on regression instead of writing a snapshot")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression in -gate mode (allocs/op may never grow)")
	)
	flag.Parse()
	var err error
	if *gate != "" {
		err = runGate(*gate, *bench, *benchtime, *pkg, *count, *quiet, *tolerance)
	} else {
		if *benchtime == "" {
			*benchtime = "20x"
		}
		err = run(*out, *bench, *benchtime, *pkg, *count, *quiet)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// runBenchmarks executes `go test -bench` and returns the parsed result
// lines — the shared front half of the snapshot and gate modes.
func runBenchmarks(bench, benchtime, pkg string, count int, quiet bool) ([]Entry, error) {
	args := []string{"test", "-run=NONE", "-bench=" + bench, "-benchmem",
		fmt.Sprintf("-benchtime=%s", benchtime), fmt.Sprintf("-count=%d", count), pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	if quiet {
		cmd.Stdout = &buf
	} else {
		// Relay live so long runs show progress, while keeping a copy to
		// parse.
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	entries, err := parseBench(&buf)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", bench)
	}
	return entries, nil
}

func run(out, bench, benchtime, pkg string, count int, quiet bool) error {
	entries, err := runBenchmarks(bench, benchtime, pkg, count, quiet)
	if err != nil {
		return err
	}
	// With -count > 1 the snapshot records per-benchmark minima — the same
	// estimator the gate uses, so the two sides stay comparable and a lucky
	// (or unlucky) single repetition cannot skew the committed trajectory.
	entries = minEntries(entries)
	doc := File{
		SchemaVersion: 1,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Bench:         bench,
		Benchtime:     benchtime,
		Count:         count,
		Package:       pkg,
		Benchmarks:    entries,
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s (git %s)\n", len(entries), out, doc.GitSHA)
	return nil
}

// gitSHA identifies the benchmarked revision: `git rev-parse` when run in
// a checkout (the normal `make bench-json` path), suffixed "-dirty" when
// tracked files differ from that commit, since the numbers then belong to
// the working tree rather than to the commit; the linker's VCS stamp as
// fallback, "unknown" when neither exists.
func gitSHA() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
				sha += "-dirty"
			}
			return sha
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
