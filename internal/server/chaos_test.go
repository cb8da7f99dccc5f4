package server

// The end-to-end resilience suite: a seeded random workload (registry
// CRUD, warm/cold reference solves, async job lifecycles) drives a server
// whose /v1/* surface and disk persistence are under fault injection,
// through internal/chaostest's retrying client. The assertions are the
// tentpole guarantees:
//
//   - no goroutine leaks once everything is closed;
//   - every HTTP response is either a valid result or a well-formed JSON
//     error envelope (checked per response by the chaos client);
//   - the solve cache never serves a prefix that disagrees with a fresh
//     solve (differential oracle, run after faults are disabled);
//   - the client's retry counters exactly account for the injected faults:
//     injector total == retries + give-ups, because each injected fault
//     surfaces as exactly one transient observation and nothing else in
//     the configuration can produce one;
//   - kind by kind, the client saw one 429 per injected throttle and one
//     503 per injected unavail, never a connection error in their place.
//
// Everything is reproducible from the seed: the injector's fault schedule,
// the workload's operation sequence, and the retry jitter all derive from
// it. CHAOS_SEEDS=1,7,1337 (comma-separated) runs the suite once per seed;
// unset, it runs the fixed default seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/chaostest"
	"prefcover/internal/faults"
	"prefcover/internal/graphtest"
	"prefcover/internal/jobs"
	"prefcover/internal/metrics"
	"prefcover/internal/store"
)

// chaosSeeds reads CHAOS_SEEDS (comma-separated int64s); default one fixed
// seed so the suite is deterministic in a bare `go test` run.
func chaosSeeds(t *testing.T) []int64 {
	raw := os.Getenv("CHAOS_SEEDS")
	if raw == "" {
		return []int64{1}
	}
	var out []int64
	for _, tok := range strings.Split(raw, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", tok, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		t.Fatal("CHAOS_SEEDS set but contained no seeds")
	}
	return out
}

func TestChaosServing(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaosServing(t, seed) })
	}
}

func TestChaosDiskPersistence(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaosDisk(t, seed) })
	}
}

// chaosGraphs builds the workload's catalog: three distinct graphs, all
// large enough that their binary encodings exceed the injector's maximum
// partial-write allowance (4096 bytes), so a drawn torn write always
// actually tears.
func chaosGraphs(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for i, n := range []int{500, 600, 700} {
		g := graphtest.Random(rand.New(rand.NewSource(int64(100+i))), n, 6, prefcover.Independent)
		out = append(out, graphJSON(t, g))
	}
	return out
}

func runChaosServing(t *testing.T, seed int64) {
	baseline := chaostest.GoroutineBaseline()

	// The full HTTP fault menu. Disk faults are deliberately absent here:
	// an HTTP "partial" runs the real handler underneath, so a disk fault
	// drawn inside it would be masked by the one transport-level failure
	// the client observes, and the injected == observed identity would
	// need slop. runChaosDisk covers the disk path with its own exact
	// accounting instead.
	httpInj := faults.New(faults.Spec{
		Seed:       seed,
		Error:      0.06,
		Throttle:   0.05,
		Unavail:    0.04,
		Reset:      0.04,
		Partial:    0.04,
		Latency:    200 * time.Microsecond,
		LatencyP:   0.2,
		RetryAfter: time.Millisecond,
	})
	// No MaxConcurrent, no SolveTimeout, and a queue deeper than the whole
	// workload: nothing but the injector can produce a transient status,
	// which is what makes the retry accounting below an equality.
	srv, err := NewWithConfig(Config{
		Store:  store.Options{Dir: t.TempDir()},
		Jobs:   jobs.Options{Workers: 2, QueueDepth: 256},
		Faults: httpInj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	client := chaostest.NewClient(seed, metrics.NewRegistry())
	rng := rand.New(rand.NewSource(seed))
	bodies := chaosGraphs(t)
	names := []string{"alpha", "beta", "gamma"}
	ctx := context.Background()
	jsonHdr := "application/json"

	var jobIDs []string
	keysUsed := 0
	const ops = 250
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1: // upload / replace
			name := names[rng.Intn(len(names))]
			body := bodies[rng.Intn(len(bodies))]
			_, _ = client.Do(ctx, http.MethodPut, ts.URL+"/v1/graphs/"+name, jsonHdr, body, nil)
		case 2: // download
			name := names[rng.Intn(len(names))]
			_, _ = client.Do(ctx, http.MethodGet, ts.URL+"/v1/graphs/"+name, "", nil, nil)
		case 3: // delete (re-uploaded by later ops; 404 is a fine outcome)
			name := names[rng.Intn(len(names))]
			_, _ = client.Do(ctx, http.MethodDelete, ts.URL+"/v1/graphs/"+name, "", nil, nil)
		case 4, 5, 6: // reference solve, warm and cold, varying budgets
			name := names[rng.Intn(len(names))]
			k := 1 + rng.Intn(8)
			body := []byte(`{"graph_ref":"` + name + `"}`)
			url := fmt.Sprintf("%s/v1/solve?variant=independent&k=%d", ts.URL, k)
			_, _ = client.Do(ctx, http.MethodPost, url, jsonHdr, body, nil)
		case 7: // async job submission under an idempotency key
			name := names[rng.Intn(len(names))]
			keysUsed++
			key := fmt.Sprintf("chaos-%d-%d", seed, keysUsed)
			body := []byte(fmt.Sprintf(`{"graph_ref":%q,"variant":"independent","k":%d}`, name, 1+rng.Intn(8)))
			res, _ := client.Do(ctx, http.MethodPost, ts.URL+"/v1/jobs", jsonHdr, body,
				http.Header{"Idempotency-Key": {key}})
			if res != nil && res.Status < 300 {
				var snap struct {
					ID string `json:"id"`
				}
				if json.Unmarshal(res.Body, &snap) == nil && snap.ID != "" {
					jobIDs = append(jobIDs, snap.ID)
				}
			}
		case 8: // poll a known job
			if len(jobIDs) > 0 {
				id := jobIDs[rng.Intn(len(jobIDs))]
				_, _ = client.Do(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id, "", nil, nil)
			}
		case 9: // cancel (or forget) a known job
			if len(jobIDs) > 0 {
				id := jobIDs[rng.Intn(len(jobIDs))]
				_, _ = client.Do(ctx, http.MethodDelete, ts.URL+"/v1/jobs/"+id, "", nil, nil)
			}
		}
	}

	// ---- Assertions ----

	for _, v := range client.Violations() {
		t.Errorf("error-envelope violation: %s", v)
	}

	// Stop injecting, then reconcile: every injected fault surfaced as
	// exactly one transient the client either retried or gave up on.
	srv.SetFaults(nil)
	injected := httpInj.TotalFaults()
	observed := client.Counters.Retries() + client.Counters.GiveUps()
	if injected != observed {
		t.Errorf("retry accounting: injected %d faults (%s) but client observed %d (retries=%d giveups=%d)",
			injected, httpInj.CountsString(), observed, client.Counters.Retries(), client.Counters.GiveUps())
	}
	// Kind by kind: the client saw each injected 429 and 503 as exactly
	// that status. A fault that reached the client as a connection error
	// instead keeps the total above but breaks these.
	counts := httpInj.Counts()
	t.Run("reconciles-status-kinds", func(t *testing.T) {
		if got, want := client.StatusCount(http.StatusTooManyRequests), counts[faults.KindThrottle]; got != want {
			t.Errorf("client saw %d 429s, injector drew %d throttle faults", got, want)
		}
		if got, want := client.StatusCount(http.StatusServiceUnavailable), counts[faults.KindUnavail]; got != want {
			t.Errorf("client saw %d 503s, injector drew %d unavail faults", got, want)
		}
	})
	withAfter := counts[faults.KindThrottle] + counts[faults.KindUnavail]
	if h := client.Counters.Honored(); h > withAfter {
		t.Errorf("honored Retry-After %d times but only %d injected faults carried one", h, withAfter)
	} else if withAfter > client.Counters.GiveUps() && h == 0 {
		t.Errorf("%d injected faults carried Retry-After but none was honored", withAfter)
	}

	// Idempotency: the keys bound how many jobs can exist — a retried
	// submission that double-enqueued would break this.
	res, err := client.Do(ctx, http.MethodGet, ts.URL+"/v1/jobs", "", nil, nil)
	if err != nil || res == nil || res.Status != http.StatusOK {
		t.Fatalf("job listing after chaos: %v (%+v)", err, res)
	}
	var listing struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(res.Body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) > keysUsed {
		t.Errorf("%d jobs exist for %d idempotency keys: retries double-enqueued", len(listing.Jobs), keysUsed)
	}

	// Differential oracle: with faults off, every cached answer the server
	// gives must agree with a fresh local solve of the same graph.
	chaosOracle(t, ts, names)

	ts.Close()
	srv.Close()
	client.CloseIdle()
	chaostest.CheckGoroutines(t, baseline)
}

// chaosOracle downloads each surviving graph and, for several budgets,
// compares the server's (cache-served) reference solve against a direct
// in-process solve. The ordered-prefix property says they must agree
// exactly — any divergence means the cache served stale or corrupted
// results under chaos.
func chaosOracle(t *testing.T, ts *httptest.Server, names []string) {
	t.Helper()
	for _, name := range names {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/graphs/"+name, nil, nil)
		if resp.StatusCode == http.StatusNotFound {
			continue // deleted by the workload and never re-uploaded
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("oracle: GET %s = %d", name, resp.StatusCode)
			continue
		}
		g, err := prefcover.ReadGraphJSON(bytes.NewReader(body), prefcover.BuildOptions{})
		if err != nil {
			t.Errorf("oracle: parsing downloaded %s: %v", name, err)
			continue
		}
		for _, k := range []int{1, 3, 6} {
			url := fmt.Sprintf("%s/v1/solve?variant=independent&k=%d", ts.URL, k)
			resp, body := doReq(t, http.MethodPost, url,
				http.Header{"Content-Type": {"application/json"}},
				[]byte(`{"graph_ref":"`+name+`"}`))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("oracle: solve %s k=%d = %d (%s)", name, k, resp.StatusCode, body)
				continue
			}
			var got solveResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			want, err := prefcover.SolveContext(context.Background(), g,
				prefcover.Options{K: k, Variant: prefcover.Independent})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Order) != len(want.Order) {
				t.Errorf("oracle: %s k=%d: server returned %d items, fresh solve %d",
					name, k, len(got.Order), len(want.Order))
				continue
			}
			for i, v := range want.Order {
				if got.Order[i] != g.Label(v) {
					t.Errorf("oracle: %s k=%d: order[%d] = %q, fresh solve %q — cache disagrees with a fresh solve",
						name, k, i, got.Order[i], g.Label(v))
				}
			}
			if math.Abs(got.Cover-want.Cover) > 1e-9 {
				t.Errorf("oracle: %s k=%d: cover %g vs fresh %g", name, k, got.Cover, want.Cover)
			}
		}
	}
}

// runChaosDisk hammers the persistence path: every PUT draws from the disk
// injector, so snapshot writes error or tear on a seeded schedule. The
// same exact accounting holds — each disk fault becomes one 500, one
// client-side transient — and the store must stay consistent: no torn temp
// files on disk, and each name either serves its content or 404s.
func runChaosDisk(t *testing.T, seed int64) {
	baseline := chaostest.GoroutineBaseline()
	diskInj := faults.New(faults.Spec{Seed: seed, Error: 0.15, Partial: 0.1})
	dir := t.TempDir()
	srv, err := NewWithConfig(Config{Store: store.Options{Dir: dir, Faults: diskInj}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	client := chaostest.NewClient(seed+1000, metrics.NewRegistry())
	rng := rand.New(rand.NewSource(seed + 1000))
	bodies := chaosGraphs(t)
	names := []string{"disk-a", "disk-b"}
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		name := names[rng.Intn(len(names))]
		if rng.Intn(5) == 0 {
			_, _ = client.Do(ctx, http.MethodDelete, ts.URL+"/v1/graphs/"+name, "", nil, nil)
			continue
		}
		_, _ = client.Do(ctx, http.MethodPut, ts.URL+"/v1/graphs/"+name,
			"application/json", bodies[rng.Intn(len(bodies))], nil)
	}

	for _, v := range client.Violations() {
		t.Errorf("error-envelope violation: %s", v)
	}
	injected := diskInj.TotalFaults()
	observed := client.Counters.Retries() + client.Counters.GiveUps()
	if injected != observed {
		t.Errorf("disk retry accounting: injected %d (%s), observed %d (retries=%d giveups=%d)",
			injected, diskInj.CountsString(), observed, client.Counters.Retries(), client.Counters.GiveUps())
	}

	// Consistency: no torn temp files survive, and every snapshot on disk
	// belongs to a name the registry still serves.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("torn temp file left on disk: %s", e.Name())
		}
	}
	for _, name := range names {
		resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/graphs/"+name, nil, nil)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Errorf("graph %s in inconsistent state after disk chaos: %d", name, resp.StatusCode)
		}
	}

	ts.Close()
	srv.Close()
	client.CloseIdle()
	chaostest.CheckGoroutines(t, baseline)
}
