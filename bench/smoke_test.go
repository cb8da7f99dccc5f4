package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke builds the daemon and runs every workload for one second at
// 20 ops/s on graphs of at most 2,000 nodes, untraced and traced. Each run
// must answer correctly with no failed op and print every metric
// BENCHMARK.json names with its unit, and the trace must parse with no
// negative self time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "prefcoverd")
	build := exec.Command("go", "build", "-o", daemon, "./cmd/prefcoverd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := workloads[i].name
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			for mode, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
				trace := filepath.Join(dir, w+".json")
				var stdout, stderr bytes.Buffer
				cfg := config{daemon: daemon, workload: w, seed: 1, seconds: 1, trace: mode, runs: 1,
					traceOut: trace, nodes: 2000, rate: 20}
				if code := runConfig(cfg, &stdout, &stderr); code != 0 {
					t.Fatalf("trace=%d: exit %d\n%s\n%s", mode, code, stdout.String(), stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var got summary
				if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
					t.Fatalf("trace=%d: last line: %v", mode, err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d\n%s", mode, got.Correct, got.Attempted, got.Failed, stdout.String())
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s printed as %+v (present %v), want unit %s", mode, m.Name, g, ok, m.Unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace=%d: printed %d metrics, BENCHMARK.json names %d", mode, len(got.Metrics), len(want))
				}
				if mode == 1 {
					if fr := got.Metrics["failed_ratio"].Value; fr != 0 {
						t.Errorf("failed_ratio = %v", fr)
					}
					checkTrace(t, trace)
				}
			}
		})
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkTrace parses a trace file and recomputes every span's self time
// from the durations and parents it records.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("trace %s has no spans", path)
	}
	self := map[int]int64{}
	for _, e := range doc.TraceEvents {
		self[e.Args.ID] += e.Args.DurNs
		if e.Args.Parent > 0 {
			self[e.Args.Parent] -= e.Args.DurNs
		}
	}
	for _, e := range doc.TraceEvents {
		if s := self[e.Args.ID]; s < 0 || s != e.Args.SelfNs {
			t.Errorf("span %d %s: self time %d ns, recorded %d ns", e.Args.ID, e.Name, s, e.Args.SelfNs)
		}
	}
}
