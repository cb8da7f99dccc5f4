package jobs

// Request is the one description of a solve, from the client to the
// solver. It travels as a /v1/jobs JSON document (ParseRequest) and as the
// query string of /v1/solve and /v1/pipeline (ParseQuery, encoded by
// Query); both parsers end in Validate. JSON parsing is strict (unknown
// fields are rejected) because a job is fire-and-forget: a typoed
// "treshold" in a synchronous request fails visibly, in an async one it
// would silently solve the wrong problem minutes later.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"prefcover/internal/graph"
	"prefcover/internal/greedy"
)

// Request describes one solve.
type Request struct {
	// GraphRef names a graph in the registry. A /v1/solve request carries
	// it in the body ({"graph_ref": "name"}) and leaves it empty for an
	// inline graph; a job always names one.
	GraphRef string `json:"graph_ref"`
	// Variant is the cover semantics ("independent"/"i" or
	// "normalized"/"n").
	Variant string `json:"variant"`
	// K is the retained-set budget; Threshold switches to minimization
	// (both set: K caps the minimization). Exactly as greedy.Options.
	K         int     `json:"k,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Lazy is the legacy strategy switch (default true, like /v1/solve's
	// lazy=): false asks for the scan, or the parallel scan when Workers >
	// 1. An explicit Strategy wins over it.
	Lazy *bool `json:"lazy,omitempty"`
	// Workers sizes the solver's goroutine fan-out.
	Workers int `json:"workers,omitempty"`
	// Strategy selects the execution strategy (scan, parallel or lazy; the
	// lazyflat and sketch aliases of lazy), exactly as
	// greedy.Options.Strategy.
	Strategy string `json:"strategy,omitempty"`
	// Pins lists must-stock item labels retained before the greedy fill.
	Pins []string `json:"pins,omitempty"`
}

// ResolvedStrategy maps Strategy, Lazy and Workers to one solver strategy.
func (r *Request) ResolvedStrategy() (string, error) {
	return greedy.ResolveStrategy(r.Strategy, r.Lazy == nil || *r.Lazy, r.Workers)
}

// ParseVariant resolves the variant string.
func (r *Request) ParseVariant() (graph.Variant, error) {
	return graph.ParseVariant(r.Variant)
}

// maxRequestBytes bounds job-request documents; a solve description is a
// few hundred bytes plus pin labels, never megabytes.
const maxRequestBytes = 1 << 20

// ParseRequest decodes and validates a job submission, which must name
// its graph.
func ParseRequest(data []byte) (Request, error) {
	var req Request
	if len(data) > maxRequestBytes {
		return req, fmt.Errorf("jobs: request body exceeds %d bytes", maxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("jobs: parsing request: %w", err)
	}
	// Trailing garbage after the document is a malformed request, not an
	// extra document to ignore.
	if dec.More() {
		return req, fmt.Errorf("jobs: trailing data after request document")
	}
	if req.GraphRef == "" {
		return req, fmt.Errorf("jobs: need graph_ref")
	}
	return req, req.Validate()
}

// ParseQuery reads and validates the query string of /v1/solve and
// /v1/pipeline: variant, k, threshold, strategy, workers, the legacy lazy
// switch (lazy=0 or lazy=false asks for the scan) and one pin parameter
// per label.
func ParseQuery(q url.Values) (Request, error) {
	req := Request{
		Variant:  q.Get("variant"),
		Strategy: q.Get("strategy"),
		Pins:     q["pin"],
	}
	if v := q.Get("lazy"); v == "0" || v == "false" {
		req.Lazy = new(bool)
	}
	var err error
	if v := q.Get("workers"); v != "" {
		if req.Workers, err = strconv.Atoi(v); err != nil {
			return req, fmt.Errorf("bad workers %q", v)
		}
	}
	if v := q.Get("k"); v != "" {
		if req.K, err = strconv.Atoi(v); err != nil {
			return req, fmt.Errorf("bad k %q", v)
		}
	}
	if v := q.Get("threshold"); v != "" {
		if req.Threshold, err = strconv.ParseFloat(v, 64); err != nil {
			return req, fmt.Errorf("bad threshold %q", v)
		}
	}
	return req, req.Validate()
}

// Query encodes r as the query string ParseQuery reads back; GraphRef
// travels in the body. Zero knobs stay unsent, so the node applies its
// defaults.
func (r *Request) Query() url.Values {
	q := url.Values{"variant": {r.Variant}}
	if r.K != 0 {
		q.Set("k", strconv.Itoa(r.K))
	}
	if r.Threshold != 0 {
		q.Set("threshold", strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	}
	if r.Lazy != nil && !*r.Lazy {
		q.Set("lazy", "0")
	}
	if r.Workers != 0 {
		q.Set("workers", strconv.Itoa(r.Workers))
	}
	if r.Strategy != "" {
		q.Set("strategy", r.Strategy)
	}
	if len(r.Pins) > 0 {
		q["pin"] = r.Pins
	}
	return q
}

// Validate is the one validator of a request's own consistency; the
// graph's existence and the pin labels need the registry and are resolved
// by the server. Every range check is written so that NaN fails it.
func (r *Request) Validate() error {
	if _, err := r.ParseVariant(); err != nil {
		return err
	}
	if r.K < 0 {
		return fmt.Errorf("negative k %d", r.K)
	}
	if r.K == 0 && r.Threshold == 0 {
		return fmt.Errorf("need k or threshold")
	}
	if !(r.Threshold >= 0 && r.Threshold <= 1) {
		return fmt.Errorf("threshold %g outside (0,1]", r.Threshold)
	}
	if r.Workers < 0 {
		return fmt.Errorf("negative workers %d", r.Workers)
	}
	if _, err := r.ResolvedStrategy(); err != nil {
		return err
	}
	if r.K > 0 && len(r.Pins) > r.K {
		return fmt.Errorf("%d pins exceed k=%d", len(r.Pins), r.K)
	}
	// A graph's labels are unique (unlabeled nodes answer only to their
	// canonical #N), so a repeated label is exactly a repeated node.
	seen := make(map[string]bool, len(r.Pins))
	for _, p := range r.Pins {
		if seen[p] {
			return fmt.Errorf("pin %q listed twice", p)
		}
		seen[p] = true
	}
	return nil
}

// GraphRef is the body sniff the gateway routes on and the node reads a
// /v1/solve body with: the graph_ref of a JSON reference body, or "" for
// an inline graph document (which decodes with an empty ref) and for
// anything that is not JSON.
func GraphRef(body []byte) string {
	var probe struct {
		GraphRef string `json:"graph_ref"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return ""
	}
	return probe.GraphRef
}
