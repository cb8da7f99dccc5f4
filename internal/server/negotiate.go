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
	"mime"
	"net/http"
	"strings"

	"prefcover"
	"prefcover/internal/debugpage"
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

// decodeGraph parses one graph in the given format.
func decodeGraph(r io.Reader, f graphFormat) (*prefcover.Graph, error) {
	switch f {
	case formatBinary:
		g, err := prefcover.ReadGraphBinary(r)
		if err != nil {
			return nil, fmt.Errorf("parsing binary graph: %w", err)
		}
		return g, nil
	case formatTSV:
		g, err := prefcover.ReadGraphTSV(r, prefcover.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("parsing TSV graph: %w", err)
		}
		return g, nil
	default:
		g, err := prefcover.ReadGraphJSON(r, prefcover.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("parsing graph JSON: %w", err)
		}
		return g, nil
	}
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
