package jobs

// Request is the /v1/jobs submission payload: a solve described by
// reference — the graph lives in the registry under GraphRef — plus the
// same knobs the synchronous solve endpoint takes. Parsing is strict
// (unknown fields are rejected) because a job is fire-and-forget: a typoed
// "treshold" in a synchronous request fails visibly, in an async one it
// would silently solve the wrong problem minutes later.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"prefcover/internal/graph"
	"prefcover/internal/greedy"
)

// Request describes one async solve.
type Request struct {
	// GraphRef names a graph in the registry.
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

// ParseRequest decodes and validates a job submission.
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
	return req, req.Validate()
}

// Validate checks the request's self-consistency (graph existence and pin
// resolution need the registry and happen at submit time in the server).
func (r *Request) Validate() error {
	if r.GraphRef == "" {
		return fmt.Errorf("jobs: need graph_ref")
	}
	if _, err := r.ParseVariant(); err != nil {
		return err
	}
	if r.K < 0 {
		return fmt.Errorf("jobs: negative k %d", r.K)
	}
	if r.K == 0 && r.Threshold == 0 {
		return fmt.Errorf("jobs: need k or threshold")
	}
	if r.Threshold < 0 || r.Threshold > 1 {
		return fmt.Errorf("jobs: threshold %g outside (0,1]", r.Threshold)
	}
	if r.Workers < 0 {
		return fmt.Errorf("jobs: negative workers %d", r.Workers)
	}
	if _, err := r.ResolvedStrategy(); err != nil {
		return err
	}
	if r.K > 0 && len(r.Pins) > r.K {
		return fmt.Errorf("jobs: %d pins exceed k=%d", len(r.Pins), r.K)
	}
	return nil
}
