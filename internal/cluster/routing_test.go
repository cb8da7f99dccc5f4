package cluster

// Routing through the gateway, one behaviour per test: the merged
// listings and their 502 rule, job polls through the owner and through the
// 404 walk, reads and solves found by the walk after a join, DELETE's best
// status and its reach past a join, which calls the routing counter
// counts, which forwarded attempts the RED metrics count, and which
// answers become sticky routes and how many the route tables keep.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/faults"
	"prefcover/internal/graphtest"
)

// putGraphs uploads one small random graph per name through the gateway.
func putGraphs(t *testing.T, fx *clusterFixture, names ...string) {
	t.Helper()
	for i, name := range names {
		g := graphtest.Random(rand.New(rand.NewSource(int64(200+i))), 60+10*i, 4, prefcover.Independent)
		fx.graphs[name] = g
		resp, body := doGW(t, http.DefaultClient, http.MethodPut, fx.harness.GatewayURL()+"/v1/graphs/"+name, graphBody(t, g))
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s = %d (%s)", name, resp.StatusCode, body)
		}
	}
}

// submitJob posts an async solve of graph through base and returns its ID.
func submitJob(t *testing.T, base, graph string) string {
	t.Helper()
	resp, body := doGW(t, http.DefaultClient, http.MethodPost, base+"/v1/jobs",
		[]byte(`{"graph_ref":"`+graph+`","variant":"independent","k":3}`))
	var job struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &job) != nil || job.ID == "" {
		t.Fatalf("submit job on %s = %d (%s)", graph, resp.StatusCode, body)
	}
	return job.ID
}

// forwarded sums the gateway's forwarded answers matching match.
func forwarded(g *Gateway, match map[string]string) int64 {
	var n int64
	for _, s := range g.reg.Snapshot().Samples("prefcover_gateway_requests_total") {
		if s.Labels.Matches(match) {
			n += int64(s.Value)
		}
	}
	return n
}

// TestGatewayGraphListing: with R=2 every graph sits on two nodes, and the
// gateway's listing names each once and sums its bytes once.
func TestGatewayGraphListing(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	names := []string{"alpha", "beta", "gamma"}
	putGraphs(t, fx, names...)

	type listing struct {
		Graphs []struct {
			Name  string `json:"name"`
			Bytes int64  `json:"bytes"`
		} `json:"graphs"`
		TotalBytes int64 `json:"totalBytes"`
	}
	sizes := map[string]int64{}
	for _, u := range fx.harness.NodeURLs() {
		_, body := doGW(t, http.DefaultClient, http.MethodGet, u+"/v1/graphs", nil)
		var lb listing
		if err := json.Unmarshal(body, &lb); err != nil {
			t.Fatal(err)
		}
		for _, gi := range lb.Graphs {
			sizes[gi.Name] = gi.Bytes
		}
	}
	resp, body := doGW(t, http.DefaultClient, http.MethodGet, fx.harness.GatewayURL()+"/v1/graphs", nil)
	var lb listing
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lb) != nil {
		t.Fatalf("GET /v1/graphs = %d (%s)", resp.StatusCode, body)
	}
	var want int64
	for _, name := range names {
		want += sizes[name]
	}
	seen := map[string]int{}
	for _, gi := range lb.Graphs {
		seen[gi.Name]++
	}
	for _, name := range names {
		if seen[name] != 1 {
			t.Errorf("listing names %s %d times, want once", name, seen[name])
		}
	}
	if len(lb.Graphs) != len(names) || lb.TotalBytes != want {
		t.Errorf("listing: %d graphs, totalBytes %d; want %d graphs, %d bytes", len(lb.Graphs), lb.TotalBytes, len(names), want)
	}
}

// TestGatewayJobListing: the gateway's job listing is the union of every
// node's queue.
func TestGatewayJobListing(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	names := []string{"alpha", "beta", "gamma"}
	putGraphs(t, fx, names...)
	gw := fx.harness.GatewayURL()
	want := map[string]bool{}
	for _, name := range names {
		want[submitJob(t, gw, name)] = true
	}
	owners := map[string]bool{}
	for id := range want {
		owners[fx.gw.jobNode(id)] = true
	}

	resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+"/v1/jobs", nil)
	var lb struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lb) != nil {
		t.Fatalf("GET /v1/jobs = %d (%s)", resp.StatusCode, body)
	}
	seen := map[string]int{}
	for _, j := range lb.Jobs {
		seen[j.ID]++
	}
	for id := range want {
		if seen[id] != 1 {
			t.Errorf("listing names job %s %d times, want once", id, seen[id])
		}
	}
	if len(lb.Jobs) != len(want) {
		t.Errorf("listing has %d jobs, want %d (held by %d nodes)", len(lb.Jobs), len(want), len(owners))
	}
}

// TestGatewayListingAnswersWhenAnyNodeDoes: a listing is a 502 only when
// no node answered 200; an empty 200 from a reachable node is an answer.
func TestGatewayListingAnswersWhenAnyNodeDoes(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	gw := fx.harness.GatewayURL()
	failing := func() *faults.Injector { return faults.New(faults.Spec{Seed: 1, Error: 1}) }

	fx.servers[0].SetFaults(failing())
	for path, want := range map[string]string{
		"/v1/graphs": `{"graphs":[],"totalBytes":0}`,
		"/v1/jobs":   `{"jobs":[]}`,
	} {
		resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+path, nil)
		if resp.StatusCode != http.StatusOK || string(body) != want+"\n" {
			t.Errorf("GET %s with one node failing = %d %s, want 200 %s", path, resp.StatusCode, body, want)
		}
	}

	fx.servers[1].SetFaults(failing())
	for _, path := range []string{"/v1/graphs", "/v1/jobs"} {
		resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+path, nil)
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("GET %s with every node failing = %d (%s), want 502", path, resp.StatusCode, body)
		}
	}
}

// TestGatewayJobPolls: status and cancel go straight to the node that
// accepted the job, and a gateway that never saw the job finds it by
// walking the nodes past their 404s.
func TestGatewayJobPolls(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	putGraphs(t, fx, "alpha")
	gw := fx.harness.GatewayURL()
	id := submitJob(t, gw, "alpha")
	owner := fx.gw.jobNode(id)
	if owner == "" {
		t.Fatal("the gateway did not record the job's node")
	}

	resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Prefcover-Node") != owner {
		t.Fatalf("poll = %d from %s (%s), want 200 from %s", resp.StatusCode, resp.Header.Get("X-Prefcover-Node"), body, owner)
	}
	polls := map[string]string{"endpoint": "/v1/jobs/{id}"}
	if n, o := forwarded(fx.gw, polls), forwarded(fx.gw, map[string]string{"endpoint": "/v1/jobs/{id}", "node": owner}); n != 1 || o != 1 {
		t.Errorf("poll through the owner forwarded %d times (%d to the owner), want once", n, o)
	}

	other, err := New(Options{Nodes: fx.harness.NodeURLs(), Replicas: 2, ProbeInterval: time.Hour, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	ts := httptest.NewServer(other.Handler())
	defer ts.Close()
	resp, body = doGW(t, http.DefaultClient, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Prefcover-Node") != owner {
		t.Fatalf("poll through a second gateway = %d from %s (%s), want 200 from %s",
			resp.StatusCode, resp.Header.Get("X-Prefcover-Node"), body, owner)
	}
	if got := other.jobNode(id); got != owner {
		t.Errorf("second gateway remembers job on %q, want %s", got, owner)
	}

	// Cancel through the second gateway: 202 while the job still runs,
	// 204 once a finished job is removed, then 404 from every node.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = doGW(t, http.DefaultClient, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp.StatusCode == http.StatusNoContent {
			break
		}
		if resp.StatusCode != http.StatusAccepted || time.Now().After(deadline) {
			t.Fatalf("cancel = %d (%s), want 202 or 204", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, base := range []string{ts.URL, gw} {
		resp, body = doGW(t, http.DefaultClient, http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE of a removed job via %s = %d (%s), want 404", base, resp.StatusCode, body)
		}
	}
	resp, _ = doGW(t, http.DefaultClient, http.MethodGet, ts.URL+"/v1/jobs/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("poll of an unknown job = %d, want 404", resp.StatusCode)
	}
}

// joinedPrimaries returns count graph names that extra, once it joins
// fx's nodes, takes over as primary, and the ring after that join. With
// R=2 over fx's two nodes, both of them hold every such graph.
func joinedPrimaries(t *testing.T, fx *clusterFixture, extra string, count int) ([]string, *Ring) {
	t.Helper()
	after := NewRing(0)
	for _, u := range append(fx.harness.NodeURLs(), extra) {
		after.Add(u)
	}
	var names []string
	for i := 0; len(names) < count && i < 10000; i++ {
		if name := fmt.Sprintf("walk-%d", i); after.Lookup(name, 2)[0] == extra {
			names = append(names, name)
		}
	}
	if len(names) < count {
		t.Fatal("no graph names placed on the joined node")
	}
	return names, after
}

// join adds node to the gateway's ring through the control plane.
func join(t *testing.T, gw, node string) {
	t.Helper()
	resp, body := doGW(t, http.DefaultClient, http.MethodPost, gw+"/debug/cluster?action=join&node="+node, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d (%s)", resp.StatusCode, body)
	}
}

// TestGatewayWalkAfterJoin: a joined node takes over as primary for some
// graphs before it holds their bytes. A solve and a GET by name ask it
// first, take its 404, and walk on to a replica that holds the graph.
// (A drain alone does not put such a node first: the surviving replica
// keeps its place on the ring ahead of the newcomer.)
func TestGatewayWalkAfterJoin(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	extraFx := bootCluster(t, 1)
	defer extraFx.close()
	extra := extraFx.harness.NodeURLs()[0]
	names, after := joinedPrimaries(t, fx, extra, 2)
	putGraphs(t, fx, names...)
	gw := fx.harness.GatewayURL()
	join(t, gw, extra)

	for _, c := range []struct {
		method, path, endpoint, name string
		body                         []byte
	}{
		{http.MethodPost, "/v1/solve?variant=independent&k=3", "/v1/solve", names[0], []byte(`{"graph_ref":"` + names[0] + `"}`)},
		{http.MethodGet, "/v1/graphs/" + names[1], "/v1/graphs/{name}", names[1], nil},
	} {
		holder := after.Lookup(c.name, 2)[1]
		resp, body := doGW(t, http.DefaultClient, c.method, gw+c.path, c.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Prefcover-Node") != holder {
			t.Errorf("%s %s after join = %d from %s (%.80s), want 200 from %s",
				c.method, c.path, resp.StatusCode, resp.Header.Get("X-Prefcover-Node"), body, holder)
		}
		if n := forwarded(fx.gw, map[string]string{"node": extra, "endpoint": c.endpoint, "code": "404"}); n != 1 {
			t.Errorf("%s %s: %d 404s from the joined node, want the one the walk passed", c.method, c.path, n)
		}
	}
}

// TestGatewayDeleteBestStatus: DELETE goes to every node and relays the
// best answer, so a replica that already lost the graph does not hide the
// other's success; once no node holds it the answer is 404.
func TestGatewayDeleteBestStatus(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	putGraphs(t, fx, "alpha")
	gw := fx.harness.GatewayURL()
	replicas := fx.gw.Ring().Lookup("alpha", 2)
	resp, _ := doGW(t, http.DefaultClient, http.MethodDelete, replicas[0]+"/v1/graphs/alpha", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("direct DELETE on %s = %d", replicas[0], resp.StatusCode)
	}
	resp, body := doGW(t, http.DefaultClient, http.MethodDelete, gw+"/v1/graphs/alpha", nil)
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get("X-Prefcover-Node") != replicas[1] {
		t.Errorf("DELETE = %d from %s (%s), want 204 from %s", resp.StatusCode, resp.Header.Get("X-Prefcover-Node"), body, replicas[1])
	}
	if st := fx.gw.currentState(); st.StickyKeys != 0 {
		t.Errorf("%d sticky routes after DELETE, want 0", st.StickyKeys)
	}
	resp, body = doGW(t, http.DefaultClient, http.MethodDelete, gw+"/v1/graphs/alpha", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE = %d (%s), want 404", resp.StatusCode, body)
	}
}

// TestGatewayDeleteAfterJoin: after a join hands a graph's primary to a
// node that never held it, DELETE still reaches both former replicas, so
// the graph is gone: a GET by name answers 404 and the listing omits it.
func TestGatewayDeleteAfterJoin(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	extraFx := bootCluster(t, 1)
	defer extraFx.close()
	extra := extraFx.harness.NodeURLs()[0]
	names, _ := joinedPrimaries(t, fx, extra, 1)
	name := names[0]
	putGraphs(t, fx, name)
	gw := fx.harness.GatewayURL()
	join(t, gw, extra)

	resp, body := doGW(t, http.DefaultClient, http.MethodDelete, gw+"/v1/graphs/"+name, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE after join = %d (%s), want 204", resp.StatusCode, body)
	}
	resp, body = doGW(t, http.DefaultClient, http.MethodGet, gw+"/v1/graphs/"+name, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE = %d from %s (%.80s), want 404", resp.StatusCode, resp.Header.Get("X-Prefcover-Node"), body)
	}
	resp, body = doGW(t, http.DefaultClient, http.MethodGet, gw+"/v1/graphs", nil)
	var lb struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lb) != nil {
		t.Fatalf("GET /v1/graphs = %d (%s)", resp.StatusCode, body)
	}
	for _, gi := range lb.Graphs {
		if gi.Name == name {
			t.Errorf("the listing still names deleted graph %s", name)
		}
	}
}

// TestGatewayStickyOnlyForHeldGraphs: a sticky route names a node that
// holds the graph. GETs and solves naming graphs no node holds (404 from
// the walk) and bad requests (400) leave the route table as it was, so
// /debug/cluster counts the one real graph; PATCHes of made-up job IDs
// (405) leave the job-owner table empty.
func TestGatewayStickyOnlyForHeldGraphs(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	putGraphs(t, fx, "alpha")
	gw := fx.harness.GatewayURL()
	for i := 0; i < 5; i++ {
		ghost := fmt.Sprintf("ghost-%d", i)
		if resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+"/v1/graphs/"+ghost, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d (%s), want 404", ghost, resp.StatusCode, body)
		}
		for query, want := range map[string]int{"?variant=i&k=3": http.StatusNotFound, "?variant=i&k=-1": http.StatusBadRequest} {
			resp, body := doGW(t, http.DefaultClient, http.MethodPost, gw+"/v1/solve"+query, []byte(`{"graph_ref":"`+ghost+`"}`))
			if resp.StatusCode != want {
				t.Fatalf("solve %s%s = %d (%s), want %d", ghost, query, resp.StatusCode, body, want)
			}
		}
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("made-up-%d", i)
		if resp, body := doGW(t, http.DefaultClient, http.MethodPatch, gw+"/v1/jobs/"+id, nil); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("PATCH job %s = %d (%s), want 405", id, resp.StatusCode, body)
		}
	}
	resp, body := doGW(t, http.DefaultClient, http.MethodGet, gw+"/debug/cluster", nil)
	var st clusterState
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("GET /debug/cluster = %d (%s)", resp.StatusCode, body)
	}
	if st.StickyKeys != 1 {
		t.Errorf("stickyKeys = %d after requests naming missing graphs, want 1 (alpha)", st.StickyKeys)
	}
	if st.TrackedJbs != 0 {
		t.Errorf("trackedJobs = %d after PATCHes of made-up job IDs, want 0", st.TrackedJbs)
	}
}

// TestGatewayRouteTablesBounded: however many names clients send, each
// route table keeps maxRoutes entries and drops the least recently used,
// so a job polled since it was submitted outlives newer ones.
func TestGatewayRouteTablesBounded(t *testing.T) {
	fx := bootCluster(t, 1)
	defer fx.close()
	g, node := fx.gw, fx.harness.NodeURLs()[0]
	for i := 0; i < maxRoutes; i++ {
		g.remember(g.jobOwner, fmt.Sprintf("job-%d", i), node)
	}
	if g.jobNode("job-0") != node {
		t.Fatal("job-0 not tracked with the table at its bound")
	}
	for i := 0; i < maxRoutes+100; i++ {
		g.remember(g.sticky, fmt.Sprintf("graph-%d", i), node)
	}
	for i := maxRoutes; i < maxRoutes+100; i++ {
		g.remember(g.jobOwner, fmt.Sprintf("job-%d", i), node)
	}
	st := g.currentState()
	if st.StickyKeys != maxRoutes || st.TrackedJbs != maxRoutes {
		t.Fatalf("stickyKeys %d, trackedJobs %d; want both %d", st.StickyKeys, st.TrackedJbs, maxRoutes)
	}
	if g.jobNode("job-0") != node || g.jobNode("job-1") != "" || g.jobNode(fmt.Sprintf("job-%d", maxRoutes+99)) != node {
		t.Error("job owners not evicted least recently used first: want job-0 (polled) and the newest kept, job-1 gone")
	}
}

// TestGatewayRoutedCountsSolves: prefcover_gateway_routed_total counts
// solve routing decisions only. Adapt, pipeline and stats calls leave it
// unchanged; an inline solve counts least_loaded and a reference solve
// sticky.
func TestGatewayRoutedCountsSolves(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	putGraphs(t, fx, "alpha")
	gw := fx.harness.GatewayURL()
	routed := func(strategy string) int64 {
		var n int64
		for _, s := range fx.gw.reg.Snapshot().Samples("prefcover_gateway_routed_total") {
			if s.Labels.Matches(map[string]string{"strategy": strategy}) {
				n += int64(s.Value)
			}
		}
		return n
	}
	sessions := []byte(`{"id":"s1","purchase":"a","clicks":["b"]}` + "\n" + `{"id":"s2","purchase":"b","clicks":["a"]}` + "\n")
	inline := graphBody(t, fx.graphs["alpha"])
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/adapt", sessions},
		{"/v1/pipeline?k=1", sessions},
		{"/v1/stats", inline},
	} {
		if resp, body := doGW(t, http.DefaultClient, http.MethodPost, gw+c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d (%s)", c.path, resp.StatusCode, body)
		}
	}
	if n := sumCounters(fx.gw.reg, "prefcover_gateway_routed_total"); n != 0 {
		t.Errorf("adapt, pipeline and stats counted %d routing decisions, want 0", n)
	}
	for _, body := range [][]byte{inline, []byte(`{"graph_ref":"alpha"}`)} {
		if resp, out := doGW(t, http.DefaultClient, http.MethodPost, gw+"/v1/solve?variant=independent&k=3", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/solve = %d (%s)", resp.StatusCode, out)
		}
	}
	if ll, st := routed("least_loaded"), routed("sticky"); ll != 1 || st != 1 {
		t.Errorf("after an inline and a reference solve: least_loaded %d, sticky %d; want 1 and 1", ll, st)
	}
}

// TestGatewayLatencyCountsAnswers: the forwarded-latency histogram counts
// the same attempts as the request counter, the ones a node answered in
// full. A backend that resets connections or cuts bodies short shows up
// only in the node-failure counter.
func TestGatewayLatencyCountsAnswers(t *testing.T) {
	fx := bootCluster(t, 1)
	defer fx.close()
	var calls atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			_, _ = w.Write([]byte(`{"status":"ready"}`))
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		if calls.Add(1)%2 == 0 {
			_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")
			_ = buf.Flush()
		}
	}))
	defer broken.Close()

	g, err := New(Options{
		Nodes:             []string{fx.harness.NodeURLs()[0], broken.URL},
		ProbeInterval:     time.Hour,
		MaxAttempts:       2,
		RetryBase:         time.Millisecond,
		DisableKeepAlives: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, body := doGW(t, http.DefaultClient, http.MethodGet, ts.URL+"/v1/jobs", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs = %d (%s)", resp.StatusCode, body)
		}
	}
	if calls.Load() < 2 {
		t.Fatalf("the broken backend saw %d calls, want a reset and a cut-short body", calls.Load())
	}

	snap := g.reg.Snapshot()
	counts := map[string][2]int64{} // node, endpoint -> requests, latency observations
	for _, s := range snap.Samples("prefcover_gateway_requests_total") {
		c := counts[s.Labels.Without("code").Key()]
		c[0] += int64(s.Value)
		counts[s.Labels.Without("code").Key()] = c
	}
	for _, s := range snap.Samples("prefcover_gateway_request_seconds_count") {
		c := counts[s.Labels.Key()]
		c[1] += int64(s.Value)
		counts[s.Labels.Key()] = c
	}
	if len(counts) == 0 {
		t.Fatal("no forwarded traffic recorded")
	}
	for key, c := range counts {
		if c[0] != c[1] {
			t.Errorf("%s: requests_total %d, latency _count %d; want equal", key, c[0], c[1])
		}
	}
	if n := forwarded(g, map[string]string{"node": fx.harness.NodeURLs()[0]}); n != 2 {
		t.Errorf("the working node answered %d listings, want 2", n)
	}
	if n := sumCounters(g.reg, "prefcover_gateway_node_failures_total"); n != calls.Load() {
		t.Errorf("%d node failures recorded, want %d", n, calls.Load())
	}
}
