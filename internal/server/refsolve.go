package server

// The one solve path: validate, resolve and answer (see the package
// comment). A cached prefix answers every smaller budget and every
// threshold its cover curve reaches, the greedy solution's ordered-prefix
// property. The per-item coverage is rebuilt per request from the served
// prefix alone; no cache entry holds one.

import (
	"context"
	"fmt"
	"net/http"

	"prefcover"
	"prefcover/internal/jobs"
	"prefcover/internal/kernel"
	"prefcover/internal/profilez"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
	"prefcover/internal/trace"
)

// solveTask is a validated request bound to its graph: what answer needs.
type solveTask struct {
	// name labels the solve in profiles and accounting: the registry name,
	// or "inline" for a graph the request carried.
	name string
	// entry is the registered graph; nil for an inline graph, which
	// bypasses the prefix cache.
	entry *store.Entry
	graph *prefcover.Graph
	opts  prefcover.Options
}

// validate is the one validation every solve request gets before the
// registry, the prefix cache, the job queue or the solver sees it. err is
// its parser's verdict — jobs.ParseQuery and jobs.ParseRequest both end in
// Request.Validate — and the server's k limit comes on top. A threshold
// request without k runs with k = MaxSolveK (see resolve), so its pins
// must fit that cap too.
func (s *Server) validate(req *jobs.Request, err error) error {
	if err != nil {
		return err
	}
	switch limit := s.limits.MaxSolveK; {
	case limit <= 0:
	case req.K > limit:
		return fmt.Errorf("k %d exceeds server limit %d", req.K, limit)
	case len(req.Pins) > limit:
		return fmt.Errorf("%d pins exceed server limit %d", len(req.Pins), limit)
	}
	return nil
}

// resolve binds a validated request to its graph: g when the request
// carried one, otherwise the registered graph req.GraphRef names. It looks
// the pin labels up on that graph and applies the k limit, which bounds a
// threshold solve too: with MaxSolveK set, k = 0 means k = MaxSolveK, and
// an unmet threshold answers reached:false at that cap. On failure the
// second return is the HTTP status the error maps to.
func (s *Server) resolve(req *jobs.Request, g *prefcover.Graph) (*solveTask, int, error) {
	t := &solveTask{name: "inline", graph: g}
	if g == nil {
		if err := store.ValidateName(req.GraphRef); err != nil {
			return nil, http.StatusBadRequest, err
		}
		entry, ok := s.store.Get(req.GraphRef)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("graph %q not found", req.GraphRef)
		}
		t.name, t.entry, t.graph = req.GraphRef, entry, entry.Graph
	}
	pinned, err := prefcover.LookupAll(t.graph, req.Pins)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Validate accepted both, so neither fails here.
	variant, _ := req.ParseVariant()
	strategy, _ := req.ResolvedStrategy()
	t.opts = prefcover.Options{
		Variant:   variant,
		K:         req.K,
		Threshold: req.Threshold,
		Workers:   req.Workers,
		Strategy:  strategy,
		Pinned:    pinned,
	}
	if t.opts.K == 0 {
		t.opts.K = s.limits.MaxSolveK
	}
	return t, 0, nil
}

// answer is the one answer routine: it solves t under the request
// deadline and appends the encoded response to dst. A registered graph
// goes through the prefix cache, whose "cache" span records which way it
// went; an inline graph is solved fresh. The status is meaningful only for
// a registered graph.
func (s *Server) answer(ctx context.Context, t *solveTask, dst []byte) ([]byte, solvecache.Status, error) {
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	var (
		sol    *prefcover.Solution
		usage  *profilez.Usage
		hit    *solvecache.Hit
		status solvecache.Status
		err    error
	)
	if t.entry == nil {
		if sol, usage, err = s.solve(ctx, t.name, t.graph, t.opts); err != nil {
			return dst, status, err
		}
		hit = &solvecache.Hit{Order: sol.Order, Gains: sol.Gains, Cover: sol.Cover, Reached: sol.Reached}
	} else {
		cctx, span := trace.StartSpan(ctx, "cache")
		span.SetAttr("graph", t.name)
		defer span.End()
		key := solvecache.Key{GraphHash: t.entry.Hash, Variant: t.opts.Variant, Pins: solvecache.PinsKey(t.opts.Pinned)}
		query := solvecache.Query{K: t.opts.K, Threshold: t.opts.Threshold}
		hit, status, err = s.cache.Do(cctx, key, query, func() (*solvecache.Result, error) {
			got, u, serr := s.solve(ctx, t.name, t.graph, t.opts)
			if serr != nil {
				return nil, serr
			}
			sol, usage = got, u
			s.store.RecordSolve(t.name)
			return solvecache.NewResult(got, t.graph.NumNodes(), len(t.opts.Pinned)), nil
		})
		span.SetAttr("status", status.String())
		s.met.cacheOps.With(status.String()).Inc()
		if err != nil {
			return dst, status, err
		}
		// Every name holding this content may have dropped it while the
		// solver ran, in which case the invalidation hook fired before Do
		// stored this result: drop the orphan.
		if status == solvecache.StatusMiss && !s.store.Holds(key.GraphHash) {
			s.cache.InvalidateGraph(key.GraphHash)
		}
	}
	resp, replay := hitPayload(t, hit, sol)
	if replay != nil {
		defer replay.Release()
	}
	// Resources only when this caller ran the solver: a hit (or a fill
	// coalesced onto another in-flight request) did no solver work here.
	resp.Resources = usage
	dst, err = appendSolveResponse(dst, &resp)
	return dst, status, err
}

// hitPayload is the one payload builder: it converts an answered prefix —
// a cache hit, or a fresh solve's own prefix — into the response shape.
// Its coverage is the solver's own I[v]/W(v) report for exactly the served
// prefix, so the bytes are the same whether the cache or a fresh solve
// answered: sol's report when this caller solved the whole prefix,
// otherwise a replay of the prefix's Adds on pooled kernel state — O(n)
// plus the prefix's in-degrees, no solver work. The replay state, nil when
// unused, backs resp.Coverage; release it once resp is encoded.
func hitPayload(t *solveTask, h *solvecache.Hit, sol *prefcover.Solution) (resp solveResponse, replay *kernel.State) {
	order := make([]string, len(h.Order))
	for i, v := range h.Order {
		order[i] = t.graph.Label(v)
	}
	resp = solveResponse{
		Variant: t.opts.Variant.String(),
		K:       len(h.Order),
		Cover:   h.Cover,
		Reached: h.Reached,
		Order:   order,
		Gains:   h.Gains,
	}
	if sol != nil && len(sol.Order) == len(h.Order) {
		resp.Coverage = sol.Coverage
	} else {
		replay = kernel.Replay(t.graph, t.opts.Variant, h.Order)
		resp.Coverage = replay.Coverage()
	}
	return resp, replay
}
