package cluster

// The cluster-level chaos suite: K=3 real in-process prefcoverd nodes
// behind the gateway, R=2 replication, a seeded fault injector armed on
// one node. The claims:
//
//   - placement: every uploaded graph lands on exactly its ring-computed
//     R-replica set, and a re-upload reconciles (304) instead of
//     re-transferring;
//   - failover: with one node under faults, solves through the gateway
//     keep succeeding, and the gateway's failure accounting reconciles
//     exactly — injected faults == failed forward attempts == failovers
//     + give-ups (the gateway's transport has keep-alives disabled so
//     connection resets surface exactly once, and nothing else in this
//     configuration can produce a transient);
//   - the cluster-level differential oracle: once faults stop, the
//     gateway and every replica return the identical ordered prefix for
//     the same (graph, variant, k) as a fresh local solve — replicas
//     cannot drift apart under chaos because the greedy solver is
//     deterministic;
//   - zero goroutine leaks after teardown.
//
// CHAOS_SEEDS=1,7,1337 runs one fault schedule per seed, exactly like
// internal/server's suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"prefcover/internal/server"
	"prefcover/internal/store"
)

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

func TestChaosCluster(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaosCluster(t, seed) })
	}
}

// clusterFixture is the booted cluster: K prefcoverd servers, their
// graphs, the gateway, and the harness tying them together.
type clusterFixture struct {
	harness *chaostest.ClusterHarness
	servers []*server.Server
	gw      *Gateway
	graphs  map[string]*prefcover.Graph
}

func bootCluster(t *testing.T, k int) *clusterFixture {
	t.Helper()
	fx := &clusterFixture{servers: make([]*server.Server, k), graphs: map[string]*prefcover.Graph{}}
	fx.harness = chaostest.NewClusterHarness(k, func(i int) chaostest.ClusterNode {
		srv, err := server.NewWithConfig(server.Config{
			Store: store.Options{Dir: t.TempDir()},
			Jobs:  jobs.Options{Workers: 2, QueueDepth: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		fx.servers[i] = srv
		ts := httptest.NewServer(srv.Handler())
		return chaostest.ClusterNode{Server: ts, URL: ts.URL}
	})
	gw, err := New(Options{
		Nodes:    fx.harness.NodeURLs(),
		Replicas: 2,
		// Fast probes so a failure-marked node rejoins rotation quickly
		// and keeps drawing from the fault schedule.
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		MaxAttempts:   4,
		RetryBase:     time.Millisecond,
		// Keep-alives off gateway->node: a reused connection would let
		// net/http transparently replay a request whose connection died,
		// swallowing an injected reset before the failover layer saw it.
		DisableKeepAlives: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.gw = gw
	fx.harness.SetGateway(httptest.NewServer(gw.Handler()))
	return fx
}

func (fx *clusterFixture) close() {
	fx.harness.Close()
	fx.gw.Close()
	for _, s := range fx.servers {
		if s != nil {
			s.Close()
		}
	}
}

// doGW performs one request against the gateway with no client-side
// retries: failover is the gateway's job, and a retrying client would
// blur the accounting.
func doGW(t *testing.T, client *http.Client, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp, data
}

func graphBody(t *testing.T, g *prefcover.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := prefcover.WriteGraphJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sumCounters(reg *metrics.Registry, name string) int64 {
	var total int64
	for _, s := range reg.Snapshot().Samples(name) {
		total += int64(s.Value)
	}
	return total
}

func runChaosCluster(t *testing.T, seed int64) {
	baseline := chaostest.GoroutineBaseline()
	fx := bootCluster(t, 3)
	gwURL := fx.harness.GatewayURL()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// ---- Setup: upload the catalog through the gateway, faults off. ----
	names := []string{"alpha", "beta", "gamma"}
	for i, name := range names {
		g := graphtest.Random(rand.New(rand.NewSource(int64(100+i))), 400+50*i, 6, prefcover.Independent)
		fx.graphs[name] = g
		resp, body := doGW(t, client, http.MethodPut, gwURL+"/v1/graphs/"+name, graphBody(t, g))
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s through gateway = %d (%s)", name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Prefcover-Replicas"); got != "2" {
			t.Errorf("PUT %s: X-Prefcover-Replicas = %q, want 2", name, got)
		}
	}

	// Placement: each graph must live on exactly its ring-computed
	// replica set — present on both replicas, absent elsewhere.
	urls := fx.harness.NodeURLs()
	for _, name := range names {
		replicas := map[string]bool{}
		for _, n := range fx.gw.Ring().Lookup(name, 2) {
			replicas[n] = true
		}
		for _, u := range urls {
			resp, _ := doGW(t, client, http.MethodGet, u+"/v1/graphs/"+name, nil)
			switch {
			case replicas[u] && resp.StatusCode != http.StatusOK:
				t.Errorf("replica %s of %s: GET = %d, want 200", u, name, resp.StatusCode)
			case !replicas[u] && resp.StatusCode != http.StatusNotFound:
				t.Errorf("non-replica %s of %s: GET = %d, want 404", u, name, resp.StatusCode)
			}
		}
	}

	// Re-upload: the primary accepts the same bytes, the secondary
	// reconciles by ETag (304) instead of re-storing.
	before := fx.gw.met.replication.With("reconciled").Value()
	for _, name := range names {
		resp, body := doGW(t, client, http.MethodPut, gwURL+"/v1/graphs/"+name, graphBody(t, fx.graphs[name]))
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("re-PUT %s = %d (%s)", name, resp.StatusCode, body)
		}
	}
	if got := fx.gw.met.replication.With("reconciled").Value() - before; got != int64(len(names)) {
		t.Errorf("re-uploads reconciled %d secondaries, want %d", got, len(names))
	}

	// ---- Chaos: arm the injector on node 0 and drive the workload. ----
	inj := faults.New(faults.Spec{
		Seed:       seed,
		Error:      0.08,
		Throttle:   0.04,
		Unavail:    0.05,
		Reset:      0.05,
		Partial:    0.04,
		Latency:    200 * time.Microsecond,
		LatencyP:   0.2,
		RetryAfter: time.Millisecond,
	})
	fx.servers[0].SetFaults(inj)

	rng := rand.New(rand.NewSource(seed))
	var jobIDs []string
	clientFailures := 0
	const ops = 200
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // reference solve, the bread and butter
			name := names[rng.Intn(len(names))]
			k := 1 + rng.Intn(8)
			url := fmt.Sprintf("%s/v1/solve?variant=independent&k=%d", gwURL, k)
			resp, _ := doGW(t, client, http.MethodPost, url, []byte(`{"graph_ref":"`+name+`"}`))
			if resp.StatusCode != http.StatusOK {
				clientFailures++
			}
		case 5: // graph download through the gateway
			name := names[rng.Intn(len(names))]
			resp, _ := doGW(t, client, http.MethodGet, gwURL+"/v1/graphs/"+name, nil)
			if resp.StatusCode != http.StatusOK {
				clientFailures++
			}
		case 6: // cluster-wide graph listing
			resp, body := doGW(t, client, http.MethodGet, gwURL+"/v1/graphs", nil)
			if resp.StatusCode == http.StatusOK {
				var lb struct {
					Graphs []json.RawMessage `json:"graphs"`
				}
				if err := json.Unmarshal(body, &lb); err != nil {
					t.Errorf("graph listing is not JSON: %v", err)
				} else if len(lb.Graphs) != len(names) {
					t.Errorf("cluster listing has %d graphs, want %d (dedup across replicas)", len(lb.Graphs), len(names))
				}
			}
		case 7: // async job submission
			name := names[rng.Intn(len(names))]
			body := []byte(fmt.Sprintf(`{"graph_ref":%q,"variant":"independent","k":%d}`, name, 1+rng.Intn(8)))
			resp, rbody := doGW(t, client, http.MethodPost, gwURL+"/v1/jobs", body)
			if resp.StatusCode == http.StatusAccepted {
				var snap struct {
					ID string `json:"id"`
				}
				if json.Unmarshal(rbody, &snap) == nil && snap.ID != "" {
					jobIDs = append(jobIDs, snap.ID)
				}
			}
		case 8: // poll a known job (sticky job routing)
			if len(jobIDs) > 0 {
				id := jobIDs[rng.Intn(len(jobIDs))]
				resp, _ := doGW(t, client, http.MethodGet, gwURL+"/v1/jobs/"+id, nil)
				if resp.StatusCode != http.StatusOK {
					clientFailures++
				}
			}
		case 9: // merged job listing
			_, _ = doGW(t, client, http.MethodGet, gwURL+"/v1/jobs", nil)
		}
	}

	// ---- Reconciliation: stop injecting, then audit the books. ----
	fx.servers[0].SetFaults(nil)
	injected := inj.TotalFaults()
	failures := sumCounters(fx.gw.reg, "prefcover_gateway_node_failures_total")
	failovers := sumCounters(fx.gw.reg, "prefcover_gateway_failovers_total")
	giveUps := sumCounters(fx.gw.reg, "prefcover_gateway_giveups_total")
	if failures != injected {
		t.Errorf("failure accounting: node 0 injected %d faults (%s) but the gateway recorded %d failed attempts",
			injected, inj.CountsString(), failures)
	}
	if failures != failovers+giveUps {
		t.Errorf("failover accounting: %d failed attempts but %d failovers + %d give-ups",
			failures, failovers, giveUps)
	}
	// The whole point of R=2: one faulted replica must not surface to
	// clients except in the rare all-attempts-exhausted case.
	if maxTolerated := int(giveUps); clientFailures > maxTolerated {
		t.Errorf("clients saw %d failures but the gateway only gave up %d times", clientFailures, giveUps)
	}

	// ---- Differential oracle (faults off): the gateway and every ----
	// replica must answer the same ordered prefix as a fresh local solve.
	for _, name := range names {
		g := fx.graphs[name]
		replicas := fx.gw.Ring().Lookup(name, 2)
		for _, k := range []int{1, 3, 6} {
			want, err := prefcover.SolveContext(context.Background(), g,
				prefcover.Options{K: k, Variant: prefcover.Independent})
			if err != nil {
				t.Fatal(err)
			}
			targets := append([]string{gwURL}, replicas...)
			var firstOrder []string
			for ti, base := range targets {
				url := fmt.Sprintf("%s/v1/solve?variant=independent&k=%d", base, k)
				resp, body := doGW(t, client, http.MethodPost, url, []byte(`{"graph_ref":"`+name+`"}`))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("oracle: solve %s k=%d via %s = %d (%s)", name, k, base, resp.StatusCode, body)
					continue
				}
				var got struct {
					Order []string  `json:"order"`
					Cover float64   `json:"cover"`
					Gains []float64 `json:"gains"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Order) != len(want.Order) {
					t.Errorf("oracle: %s k=%d via %s: %d items, fresh solve %d",
						name, k, base, len(got.Order), len(want.Order))
					continue
				}
				for i, v := range want.Order {
					if got.Order[i] != g.Label(v) {
						t.Errorf("oracle: %s k=%d via %s: order[%d] = %q, fresh solve %q",
							name, k, base, i, got.Order[i], g.Label(v))
					}
				}
				if ti == 0 {
					firstOrder = got.Order
				} else if strings.Join(firstOrder, "\x00") != strings.Join(got.Order, "\x00") {
					t.Errorf("oracle: %s k=%d: replica %s disagrees with the gateway: %v vs %v",
						name, k, base, got.Order, firstOrder)
				}
			}
		}
	}

	// ---- Drain/failover control plane under a live cluster. ----
	resp, body := doGW(t, client, http.MethodPost,
		gwURL+"/debug/cluster?action=drain&node="+urls[0], nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain node 0 = %d (%s)", resp.StatusCode, body)
	}
	var st struct {
		RingNodes []string `json:"ringNodes"`
	}
	if err := json.Unmarshal(body, &st); err != nil || len(st.RingNodes) != 2 {
		t.Fatalf("after drain: ring = %v (err %v), want 2 nodes", st.RingNodes, err)
	}
	// Every graph must still solve: placements recompute onto the two
	// surviving nodes and the gateway re-replicates on the next PUT.
	for _, name := range names {
		resp, _ := doGW(t, client, http.MethodPost,
			gwURL+"/v1/solve?variant=independent&k=3", []byte(`{"graph_ref":"`+name+`"}`))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("solve %s after drain = %d", name, resp.StatusCode)
		}
	}
	resp, body = doGW(t, client, http.MethodPost,
		gwURL+"/debug/cluster?action=undrain&node="+urls[0], nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain node 0 = %d (%s)", resp.StatusCode, body)
	}

	// ---- Teardown and leak check. ----
	fx.close()
	client.CloseIdleConnections()
	chaostest.CheckGoroutines(t, baseline)
}
