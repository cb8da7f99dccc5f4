package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/clickstream"
	"prefcover/internal/fixture"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
	"prefcover/internal/jobs"
	"prefcover/internal/solvecache"
	"prefcover/internal/synth"
)

// denseAnswer is the parent-shaped answer to a fresh solve: the
// solveResponse of greedy.Solve, its dense Coverage included, as
// json.NewEncoder writes it.
func denseAnswer(g *prefcover.Graph, opts prefcover.Options) ([]byte, error) {
	sol, err := greedy.Solve(g, opts)
	if err != nil {
		return nil, err
	}
	order := make([]string, len(sol.Order))
	for i, v := range sol.Order {
		order[i] = g.Label(v)
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(solveResponse{Variant: opts.Variant.String(), K: len(sol.Order),
		Cover: sol.Cover, Reached: sol.Reached, Order: order, Gains: sol.Gains, Coverage: sol.Coverage})
	return buf.Bytes(), err
}

// cutResources drops a solving answer's "resources" member, the one part
// of an answer that is measured rather than computed.
func cutResources(b []byte) []byte {
	if i := bytes.Index(b, []byte(`,"resources":{`)); i >= 0 {
		return append(b[:i:i], '}', '\n')
	}
	return b
}

// oddGraph has zero-weight nodes, nodes of weight -1e-12 (within the
// -graph.Eps an upload may carry, and -0 in the coverage report) and
// self-loops.
func oddGraph(rng *rand.Rand, n int) *prefcover.Graph {
	b := prefcover.NewBuilder(n, 4*n)
	for v := 0; v < n; v++ {
		w := (0.5 + rng.Float64()) / float64(n)
		switch v % 7 {
		case 0:
			w = 0
		case 3:
			w = -1e-12
		}
		b.AddNode(w)
	}
	for v := int32(0); v < int32(n); v++ {
		if v%4 == 1 {
			b.AddEdge(v, v, 0.5)
		}
		for _, u := range rng.Perm(n)[:3] {
			if int32(u) != v {
				b.AddEdge(v, int32(u), 0.25)
			}
		}
	}
	g, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// answerCorpus is the kernel differential suite's corpus, rebuilt from its
// generators, plus oddGraph: the graphs and the budget each is solved at.
func answerCorpus(t *testing.T, variant prefcover.Variant) (gs []*prefcover.Graph, ks []int) {
	spec, err := synth.PresetGraphSpec(synth.YC, 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	spec.Variant = variant
	preset, err := synth.GenerateGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0xd1ff ^ int64(variant)))
	gs, ks = []*prefcover.Graph{fixture.Figure1Graph(), preset, oddGraph(rng, 90)}, []int{3, 25, 20}
	for trial := 0; trial < 20; trial++ {
		n := 16 + rng.Intn(150)
		gs = append(gs, graphtest.Random(rng, n, 1+rng.Intn(10), variant))
		ks = append(ks, 1+rng.Intn(n))
	}
	return gs, ks
}

// TestAnswersMatchDenseReport holds every solve answer to the
// parent-shaped dense encoding, byte for byte apart from "resources": the
// differential corpus and a graph with zero and negative weights and
// self-loops, both variants, pinned and unpinned, every budget up to a cap
// and three thresholds, answered as a miss, as a hit, inline and as a job;
// and the pipeline's answer on two clickstreams at every budget up to the
// cap.
func TestAnswersMatchDenseReport(t *testing.T) {
	t.Parallel()
	const kCap = 10
	s, err := NewWithConfig(Config{Jobs: jobs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	call := func(method, target string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	negZeros := 0 // answers whose report holds a -0, a template text wider than one byte
	check := func(what string, got []byte, g *prefcover.Graph, opts prefcover.Options) {
		t.Helper()
		if bytes.Contains(got, []byte(",-0,")) {
			negZeros++
		}
		want, err := denseAnswer(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got = cutResources(got); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			t.Fatalf("%s: answer differs from the dense encoding:\n got %.400s\nwant %.400s", what, got, want)
		}
	}
	for _, variant := range []prefcover.Variant{prefcover.Independent, prefcover.Normalized} {
		gs, ks := answerCorpus(t, variant)
		for gi, g := range gs {
			name := fmt.Sprintf("%s-%d", variant, gi)
			body := graphJSON(t, g)
			if rec := call(http.MethodPut, "/v1/graphs/"+name, body); rec.Code != http.StatusCreated {
				t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body)
			}
			kMax := min(ks[gi], kCap, g.NumNodes())
			pinSets := [][]int32{nil}
			if n := int32(g.NumNodes()); kMax >= 3 && n >= 6 {
				pinSets = append(pinSets, []int32{2 * n / 3, n / 3})
			}
			for _, pins := range pinSets {
				q := "?variant=" + variant.String()
				var pinLabels []string
				for _, v := range pins {
					q += "&pin=" + url.QueryEscape(g.Label(v))
					pinLabels = append(pinLabels, g.Label(v))
				}
				opts := func(k int, th float64) prefcover.Options {
					return prefcover.Options{Variant: variant, K: k, Threshold: th, Pinned: pins}
				}
				ref := []byte(`{"graph_ref":"` + name + `"}`)
				for _, k := range append([]int{kMax}, rangeInts(max(1, len(pins)), kMax)...) {
					rec := call(http.MethodPost, fmt.Sprintf("/v1/solve%s&k=%d", q, k), ref)
					want := map[bool]string{true: "miss", false: "hit"}[k == kMax]
					if rec.Code != http.StatusOK || rec.Header().Get("X-Prefcover-Cache") != want {
						t.Fatalf("%s pins %v k=%d: %d, cache %q (want %s): %s", name, pins, k, rec.Code, rec.Header().Get("X-Prefcover-Cache"), want, rec.Body)
					}
					check(fmt.Sprintf("%s pins %v k=%d %s", name, pins, k, want), rec.Body.Bytes(), g, opts(k, 0))
					rec = call(http.MethodPost, fmt.Sprintf("/v1/solve%s&k=%d", q, k), body)
					check(fmt.Sprintf("%s pins %v k=%d inline", name, pins, k), rec.Body.Bytes(), g, opts(k, 0))
				}
				for _, th := range []float64{0.2, 0.5, 0.9} {
					rec := call(http.MethodPost, fmt.Sprintf("/v1/solve%s&threshold=%g", q, th), ref)
					check(fmt.Sprintf("%s pins %v threshold %g", name, pins, th), rec.Body.Bytes(), g, opts(0, th))
				}
				jobBody, _ := json.Marshal(jobs.Request{GraphRef: name, Variant: variant.String(), K: kMax, Pins: pinLabels})
				rec := call(http.MethodPost, "/v1/jobs", jobBody)
				var job jobPayload
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || rec.Code != http.StatusAccepted {
					t.Fatalf("%s job: %d %s", name, rec.Code, rec.Body)
				}
				var done struct {
					State  string          `json:"state"`
					Result json.RawMessage `json:"result"`
				}
				for deadline := time.Now().Add(10 * time.Second); done.State != "done"; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s job state %q", name, done.State)
					}
					if err := json.Unmarshal(call(http.MethodGet, "/v1/jobs/"+job.ID, nil).Body.Bytes(), &done); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("%s pins %v job", name, pins), done.Result, g, opts(kMax, 0))
			}
		}
	}

	if negZeros == 0 {
		t.Fatal("no answer reported -0")
	}

	spec, sesSpec, err := synth.PresetSpecs(synth.PE, 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := synth.NewCatalog(spec)
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := synth.GenerateSessions(cat, sesSpec)
	if err != nil {
		t.Fatal(err)
	}
	var synthetic bytes.Buffer
	jw := clickstream.NewJSONLWriter(&synthetic)
	if err := clickstream.WriteAll(sessions, jw.Write); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	figure3 := `{"id":"s1","purchase":"silver","clicks":["gold"]}
{"id":"s2","purchase":"silver","clicks":["spacegray"]}
{"id":"s3","purchase":"spacegray"}
{"id":"s4","purchase":"spacegray","clicks":["silver"]}
{"id":"s5","purchase":"gold","clicks":["spacegray"]}
`
	for ci, stream := range []string{figure3, synthetic.String()} {
		for _, variant := range []prefcover.Variant{prefcover.Independent, prefcover.Normalized} {
			store, err := clickstream.ReadAll(clickstream.NewJSONLReader(strings.NewReader(stream)))
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := adaptStore(context.Background(), store, &variant)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= min(kCap, g.NumNodes()); k++ {
				rec := call(http.MethodPost, fmt.Sprintf("/v1/pipeline?variant=%s&k=%d", variant, k), []byte(stream))
				var out struct {
					Solve json.RawMessage `json:"solve"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("pipeline %d k=%d: %d %s", ci, k, rec.Code, rec.Body)
				}
				check(fmt.Sprintf("pipeline %d %s k=%d", ci, variant, k), out.Solve, g, prefcover.Options{Variant: variant, K: k})
			}
		}
	}
}

// rangeInts lists lo, lo+1, ..., hi-1.
func rangeInts(lo, hi int) []int {
	var out []int
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// fuzzWeights are the weights FuzzSparseCoverage builds graphs from: the
// edge cases of the S = {} report (0, -0, -1e-12), ordinary values, and
// the NaN and +Inf a graph built through the library may carry.
var fuzzWeights = []float64{0, math.Copysign(0, -1), -1e-12, 0.05, 0.1, 0.2, 1.0 / 3, 0.5, 0.9, 1, math.NaN(), math.Inf(1)}

// FuzzSparseCoverage holds the answer path to the dense report on a small
// graph built from the input (self-loops allowed): a solve's answer, and
// the cache's answer for every shorter prefix, must equal json.NewEncoder's
// encoding of the parent-shaped response built from greedy.Solve's dense
// Coverage, apart from "resources", or both must fail with the same error.
func FuzzSparseCoverage(f *testing.F) {
	f.Add([]byte{6, 3, 4, 5, 0, 9, 2, 0, 1, 7, 1, 2, 4, 2, 2, 6, 5, 0, 3}, uint8(4), uint8(5), false)
	f.Add([]byte{9, 1, 2, 0, 0, 3, 4, 9, 8, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1}, uint8(0x80|90), uint8(2), true)
	f.Add([]byte{4, 10, 3, 11, 5, 0, 1, 3, 1, 0, 8, 2, 3, 9}, uint8(3), uint8(1), false)
	f.Add([]byte{1, 2}, uint8(1), uint8(0), true)
	s := New(Limits{}, nil)
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, data []byte, budget, pinByte uint8, normalized bool) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%20
		if len(data) < 1+n {
			return
		}
		b := prefcover.NewBuilder(n, 0)
		for _, c := range data[1 : 1+n] {
			b.AddNode(fuzzWeights[int(c)%len(fuzzWeights)])
		}
		for e := data[1+n:]; len(e) >= 3; e = e[3:] {
			b.AddEdge(int32(int(e[0])%n), int32(int(e[1])%n), fuzzWeights[int(e[2])%len(fuzzWeights)])
		}
		g, err := b.Build(prefcover.BuildOptions{Duplicates: prefcover.DupKeepMax})
		if err != nil {
			return
		}
		opts := prefcover.Options{Variant: prefcover.Independent, K: 1 + int(budget)%(n+2)}
		if normalized {
			opts.Variant = prefcover.Normalized
		}
		if budget&0x80 != 0 {
			opts.K, opts.Threshold = 0, float64(budget&0x7f)/127
		}
		for i := 0; i < int(pinByte)%3 && i < n; i++ {
			opts.Pinned = append(opts.Pinned, int32((int(pinByte)/3+2*i)%n))
		}
		want, werr := denseAnswer(g, opts)
		task := &solveTask{name: "inline", graph: g, opts: opts}
		got, _, gerr := s.answer(context.Background(), task, nil)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("dense error %v, answer error %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if got = cutResources(got); !bytes.Equal(got, want) {
			t.Fatalf("answer differs from the dense encoding:\n got %s\nwant %s", got, want)
		}
		full, err := greedy.Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := solvecache.New(solvecache.Options{})
		key := solvecache.Key{GraphHash: "fuzz", Variant: opts.Variant}
		c.Store(key, solvecache.NewResult(full, n, len(opts.Pinned)))
		for k := max(1, len(opts.Pinned)); k < len(full.Order); k++ {
			hit, ok := c.Lookup(key, solvecache.Query{K: k})
			if !ok {
				t.Fatalf("k=%d: the cached prefix of %d did not answer", k, len(full.Order))
			}
			resp := hitPayload(task, hit)
			got, gerr := appendSolveResponse(nil, &resp)
			resp.replay.Release()
			want, werr := denseAnswer(g, prefcover.Options{Variant: opts.Variant, K: k, Pinned: opts.Pinned})
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("k=%d: dense error %v, answer error %v", k, werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("k=%d: answer differs from the dense encoding:\n got %s\nwant %s", k, got, want)
			}
		}
	})
}
