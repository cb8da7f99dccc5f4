package server

// Content negotiation for graph payloads. Three wire formats share one
// graph model: the JSON document (default), the tab-separated text codec,
// and the versioned binary codec. Uploads select theirs with Content-Type,
// downloads with Accept; an explicitly unknown type is a 415/406 rather
// than a silent fallback, so a client sending protobuf by accident learns
// immediately instead of getting a JSON parse error about byte 0.

import (
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strings"

	"prefcover"
	"prefcover/internal/debugpage"
	"prefcover/internal/graph"
)

// graphFormat enumerates the wire codecs.
type graphFormat int

const (
	formatJSON graphFormat = iota
	formatBinary
	formatTSV
)

// Media types served and accepted for graphs.
const (
	mediaJSON   = "application/json"
	mediaBinary = "application/octet-stream"
	mediaTSV    = "text/tab-separated-values"
)

func (f graphFormat) contentType() string {
	switch f {
	case formatBinary:
		return mediaBinary
	case formatTSV:
		return mediaTSV
	default:
		return mediaJSON
	}
}

// errUnsupportedMedia marks negotiation failures so handlers can map them
// to 415 (uploads) or 406 (downloads).
type errUnsupportedMedia struct{ ct string }

func (e *errUnsupportedMedia) Error() string {
	return fmt.Sprintf("unsupported graph media type %q (use %s, %s or %s)",
		e.ct, mediaJSON, mediaBinary, mediaTSV)
}

// graphFormatFromContentType resolves an upload's format. An absent or
// blank Content-Type means JSON, matching the original /v1/solve contract.
func graphFormatFromContentType(header string) (graphFormat, error) {
	if strings.TrimSpace(header) == "" {
		return formatJSON, nil
	}
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return formatJSON, &errUnsupportedMedia{ct: header}
	}
	switch mt {
	case mediaJSON, "text/json":
		return formatJSON, nil
	case mediaBinary:
		return formatBinary, nil
	case mediaTSV, "text/tsv":
		return formatTSV, nil
	default:
		return formatJSON, &errUnsupportedMedia{ct: header}
	}
}

// graphFormatFromAccept resolves a download's format: JSON by default,
// text/* is TSV, and text/json and text/tsv are aliases.
func graphFormatFromAccept(header string) (graphFormat, error) {
	switch debugpage.Negotiate(header, mediaJSON, mediaBinary, mediaTSV, "text/tsv", "text/json") {
	case mediaJSON, "text/json":
		return formatJSON, nil
	case mediaBinary:
		return formatBinary, nil
	case mediaTSV, "text/tsv":
		return formatTSV, nil
	}
	return formatJSON, &errUnsupportedMedia{ct: header}
}

// decodeGraph parses one graph in the given format and rejects one whose
// weights no solve can answer (see badWeight).
func decodeGraph(r io.Reader, f graphFormat) (*prefcover.Graph, error) {
	var (
		g    *prefcover.Graph
		err  error
		what = "graph JSON"
	)
	switch f {
	case formatBinary:
		what = "binary graph"
		g, err = prefcover.ReadGraphBinary(r)
	case formatTSV:
		what = "TSV graph"
		g, err = prefcover.ReadGraphTSV(r, prefcover.BuildOptions{})
	default:
		g, err = prefcover.ReadGraphJSON(r, prefcover.BuildOptions{})
	}
	if err == nil {
		err = badWeight(g)
	}
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", what, err)
	}
	return g, nil
}

// badWeight names the first node, else the first edge, whose weight is
// NaN, ±Inf or below -graph.Eps, the tolerance graph.Validate allows: its
// cover or gains could not be encoded, or would count negative demand.
func badWeight(g *prefcover.Graph) error {
	bad := func(w float64) bool { return !(w >= -graph.Eps) || math.IsInf(w, 1) }
	for v, w := range g.NodeWeights() {
		if bad(w) {
			return fmt.Errorf("node %q has weight %g", g.Label(int32(v)), w)
		}
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		for i, w := range ws {
			if bad(w) {
				return fmt.Errorf("edge %q -> %q has weight %g", g.Label(v), g.Label(dsts[i]), w)
			}
		}
	}
	return nil
}

// encodeGraph writes g in the given format.
func encodeGraph(w io.Writer, g *prefcover.Graph, f graphFormat) error {
	switch f {
	case formatBinary:
		return prefcover.WriteGraphBinary(w, g)
	case formatTSV:
		return prefcover.WriteGraphTSV(w, g)
	default:
		return prefcover.WriteGraphJSON(w, g)
	}
}

// allowMethods gates a handler on its method set: a miss answers 405 with
// the RFC-required Allow header and the JSON error envelope. On a match
// the request body is bounded by MaxBodyBytes.
func (s *Server) allowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	s.writeError(w, r, http.StatusMethodNotAllowed,
		fmt.Errorf("method %s not allowed (allow: %s)", r.Method, strings.Join(methods, ", ")))
	return false
}
