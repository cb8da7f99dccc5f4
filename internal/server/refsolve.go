package server

// Solve-by-reference: a /v1/solve body of {"graph_ref": "name"} (or an
// async job) solves a registered graph through the prefix-aware cache.
// The cache exploits the greedy solution's ordered-prefix property — one
// solve at budget k answers every budget k' ≤ k and, via the cover curve,
// threshold queries — so a warm cache serves these requests with zero
// solver work. The per-item coverage report is rebuilt per request from
// the served prefix alone; no cache entry holds one.

import (
	"context"
	"fmt"
	"net/http"

	"prefcover"
	"prefcover/internal/kernel"
	"prefcover/internal/profilez"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
	"prefcover/internal/trace"
)

// refSolve is a reference solve with its inputs resolved against the
// registry: the pinned labels looked up on the graph, the cache key built
// from the content hash, and the query split out of the solver options.
type refSolve struct {
	name    string
	entry   *store.Entry
	variant prefcover.Variant
	opts    prefcover.Options
	key     solvecache.Key
	query   solvecache.Query
}

// newRefSolve resolves name and pins; on failure the second return is the
// HTTP status the error maps to.
func (s *Server) newRefSolve(name string, variant prefcover.Variant, opts prefcover.Options, pinLabels []string) (*refSolve, int, error) {
	if err := store.ValidateName(name); err != nil {
		return nil, http.StatusBadRequest, err
	}
	entry, ok := s.store.Get(name)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("graph %q not found", name)
	}
	pinned, err := prefcover.LookupAll(entry.Graph, pinLabels)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	opts.Variant = variant
	opts.Pinned = pinned
	return &refSolve{
		name:    name,
		entry:   entry,
		variant: variant,
		opts:    opts,
		key: solvecache.Key{
			GraphHash: entry.Hash,
			Variant:   variant,
			Pins:      solvecache.PinsKey(pinned),
		},
		query: solvecache.Query{K: opts.K, Threshold: opts.Threshold},
	}, 0, nil
}

// solveRef answers rs through the cache, running the solver only on a
// miss, and appends the encoded response to dst. The "cache" span records
// which way it went.
func (s *Server) solveRef(ctx context.Context, rs *refSolve, dst []byte) ([]byte, solvecache.Status, error) {
	cctx, span := trace.StartSpan(ctx, "cache")
	span.SetAttr("graph", rs.name)
	defer span.End()
	var sol *prefcover.Solution
	var usage *profilez.Usage
	hit, status, err := s.cache.Do(cctx, rs.key, rs.query, func() (*solvecache.Result, error) {
		got, u, serr := s.solve(withGraphName(ctx, rs.name), rs.entry.Graph, rs.opts)
		if serr != nil {
			return nil, serr
		}
		sol, usage = got, u
		s.store.RecordSolve(rs.name)
		return solvecache.NewResult(got, rs.entry.Graph.NumNodes(), len(rs.opts.Pinned)), nil
	})
	span.SetAttr("status", status.String())
	s.met.cacheOps.With(status.String()).Inc()
	if err != nil {
		return dst, status, err
	}
	if status == solvecache.StatusMiss {
		// The graph may have been replaced or deleted while the solver ran,
		// in which case the invalidation hook fired before Do stored this
		// result — re-check the name → content mapping and drop the orphan.
		if cur, ok := s.store.Get(rs.name); !ok || cur.Hash != rs.key.GraphHash {
			s.cache.InvalidateGraph(rs.key.GraphHash)
		}
	}
	resp, replay := hitPayload(rs, hit, sol)
	if replay != nil {
		defer replay.Release()
	}
	// Resources only when this caller ran the solver: a hit (or a fill
	// coalesced onto another in-flight request) did no solver work here.
	resp.Resources = usage
	dst, err = appendSolveResponse(dst, &resp)
	return dst, status, err
}

// hitPayload converts a cache answer into the /v1/solve response shape.
// Its coverage is the solver's own I[v]/W(v) report for exactly the served
// prefix, so the bytes are the same whether the cache or a fresh solve
// answered: sol's report when this caller solved the whole prefix,
// otherwise a replay of the prefix's Adds on pooled kernel state — O(n)
// plus the prefix's in-degrees, no solver work. The replay state, nil when
// unused, backs resp.Coverage; release it once resp is encoded.
func hitPayload(rs *refSolve, h *solvecache.Hit, sol *prefcover.Solution) (resp solveResponse, replay *kernel.State) {
	g := rs.entry.Graph
	order := make([]string, len(h.Order))
	for i, v := range h.Order {
		order[i] = g.Label(v)
	}
	resp = solveResponse{
		Variant: rs.variant.String(),
		K:       len(h.Order),
		Cover:   h.Cover,
		Reached: h.Reached,
		Order:   order,
		Gains:   h.Gains,
	}
	if sol != nil && len(sol.Order) == len(h.Order) {
		resp.Coverage = sol.Coverage
	} else {
		replay = kernel.Replay(g, rs.variant, h.Order)
		resp.Coverage = replay.Coverage()
	}
	return resp, replay
}

// solveByRef is the /v1/solve handler tail for reference bodies.
func (s *Server) solveByRef(w http.ResponseWriter, r *http.Request, name string, variant prefcover.Variant, opts prefcover.Options, pinLabels []string) {
	rs, status, err := s.newRefSolve(name, variant, opts, pinLabels)
	if err != nil {
		s.writeError(w, r, status, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	buf := getRespBuf()
	defer putRespBuf(buf)
	var cstat solvecache.Status
	if *buf, cstat, err = s.solveRef(ctx, rs, *buf); err != nil {
		s.writeWorkError(w, r, "/v1/solve", err)
		return
	}
	w.Header().Set("X-Prefcover-Cache", cstat.String())
	writeRawJSON(w, *buf)
}
