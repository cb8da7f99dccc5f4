package server

// Fault-injection middleware: the serving half of internal/faults. When an
// injector is installed (prefcoverd -fault-spec, or PUT /debug/faults with
// fault control enabled), every /v1/* request draws one decision from the
// seeded stream before its handler runs — added latency, an injected 500,
// a 429/503 with Retry-After, a connection reset, or a truncated response.
// Because the draw happens under the instrument wrapper, injected failures
// are observable through the same metrics, logs, and request IDs as
// organic ones, which is what lets the chaos harness reconcile the
// injector's own counts against the client's retry counters.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prefcover/internal/faults"
)

// readAllLimit buffers at most n bytes of the request body.
func readAllLimit(r *http.Request, n int64) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r.Body, n))
}

// SetFaults installs (or, with nil, removes) the HTTP fault injector.
// Safe to call while serving: each request loads the pointer once.
func (s *Server) SetFaults(in *faults.Injector) { s.faultInj.Store(in) }

// Faults returns the currently installed HTTP fault injector, or nil.
func (s *Server) Faults() *faults.Injector { return s.faultInj.Load() }

// retryAfterValue renders an injected Retry-After as delay-seconds
// (truncated; sub-second injections advertise "0", which is valid per RFC
// 9110 and means "retry whenever you like, on your own backoff").
func retryAfterValue(d time.Duration) string {
	return strconv.Itoa(int(d / time.Second))
}

// withFaults wraps h with the fault-injection decision. It sits inside
// instrument, so injected statuses hit the request counters and the
// access log like any real failure.
func (s *Server) withFaults(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		in := s.faultInj.Load()
		if in == nil {
			h(w, r)
			return
		}
		kind, delay := in.NextOp()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}
		switch kind {
		case faults.KindError, faults.KindThrottle, faults.KindUnavail:
			// Read the body before answering: a connection closed over an
			// unread upload (a large graph PUT) is reset, and the client
			// sees "connection reset by peer" instead of the status.
			_, _ = io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes))
		}
		switch kind {
		case faults.KindError:
			s.writeError(w, r, http.StatusInternalServerError,
				fmt.Errorf("%w: internal error", faults.ErrInjected))
		case faults.KindThrottle:
			w.Header().Set("Retry-After", retryAfterValue(in.RetryAfter()))
			s.writeError(w, r, http.StatusTooManyRequests,
				fmt.Errorf("%w: throttled", faults.ErrInjected))
		case faults.KindUnavail:
			w.Header().Set("Retry-After", retryAfterValue(in.RetryAfter()))
			s.writeError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("%w: unavailable", faults.ErrInjected))
		case faults.KindReset:
			// ErrAbortHandler makes net/http drop the connection without a
			// response — the client sees a reset/EOF, never a status.
			panic(http.ErrAbortHandler)
		case faults.KindPartial:
			// Run the real handler against a byte-capped writer, then abort
			// the connection. The abort is unconditional: with chunked
			// encoding a small response could otherwise complete inside the
			// cap and the "partial" fault would be invisible to the client,
			// breaking the injected == observed accounting.
			tw := &truncatedResponseWriter{ResponseWriter: w, remaining: in.PartialLimit()}
			h(tw, r)
			panic(http.ErrAbortHandler)
		default:
			h(w, r)
		}
	}
}

// truncatedResponseWriter forwards response bytes until its allowance runs
// out, then silently drops the rest; withFaults aborts the connection
// afterwards so the client always observes the truncation.
type truncatedResponseWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *truncatedResponseWriter) Write(p []byte) (int, error) {
	if t.remaining <= 0 {
		// Report success so the handler keeps its normal control flow; the
		// bytes just never reach the wire.
		return len(p), nil
	}
	if len(p) > t.remaining {
		n, err := t.ResponseWriter.Write(p[:t.remaining])
		t.remaining -= n
		if err != nil {
			return n, err
		}
		return len(p), nil
	}
	n, err := t.ResponseWriter.Write(p)
	t.remaining -= n
	return n, err
}

// handleFaults is /debug/faults, mounted only with Config.FaultControl:
//
//	GET    -> {"spec": "...", "counts": {...}, "total": N}
//	PUT    body: spec text (see internal/faults grammar); empty disables
//	DELETE -> remove the injector
//
// Installing a spec resets the stream and the counts — each PUT starts a
// fresh reproducible experiment.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeFaultState(w)
	case http.MethodPut, http.MethodPost:
		body, err := readAllLimit(r, 1<<16)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		spec, err := faults.ParseSpec(string(body))
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		if !spec.Enabled() {
			s.SetFaults(nil)
		} else {
			s.SetFaults(faults.New(spec))
		}
		s.writeFaultState(w)
	case http.MethodDelete:
		s.SetFaults(nil)
		w.WriteHeader(http.StatusNoContent)
	default:
		s.allowMethods(w, r, http.MethodGet, http.MethodPut, http.MethodDelete)
	}
}

// faultState is the /debug/faults GET/PUT reply.
type faultState struct {
	Enabled bool                  `json:"enabled"`
	Spec    string                `json:"spec,omitempty"`
	Counts  map[faults.Kind]int64 `json:"counts,omitempty"`
	Total   int64                 `json:"total"`
}

func (s *Server) writeFaultState(w http.ResponseWriter) {
	in := s.Faults()
	if in == nil {
		writeJSON(w, faultState{})
		return
	}
	writeJSON(w, faultState{
		Enabled: true,
		Spec:    in.Spec().String(),
		Counts:  in.Counts(),
		Total:   in.TotalFaults(),
	})
}
