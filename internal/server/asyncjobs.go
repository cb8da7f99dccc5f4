package server

// The async solve endpoints. A job references a registered graph, enters a
// bounded queue (full queue = 429, same load-shedding stance as the
// synchronous limiter), runs on workers that share the server's
// concurrency budget, and lands its result in the solve cache — so one
// finished job warms every subsequent prefix query against that graph.
//
//	POST   /v1/jobs        body: {graph_ref, variant, k|threshold, ...} -> 202 {id}
//	GET    /v1/jobs        -> {jobs: [...]} newest first
//	GET    /v1/jobs/{id}   -> {id, state, progress, result?, error?}
//	DELETE /v1/jobs/{id}   -> cancel (202) or forget a finished job (204)

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"prefcover"
	"prefcover/internal/apiclient"
	"prefcover/internal/jobs"
	"prefcover/internal/trace"
)

// jobPayload is the job JSON shape; zero timestamps and absent results are
// omitted rather than serialized as zero values.
type jobPayload struct {
	ID       string        `json:"id"`
	State    string        `json:"state"`
	Progress jobs.Progress `json:"progress"`
	Result   any           `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
	Created  time.Time     `json:"created"`
	Started  *time.Time    `json:"started,omitempty"`
	Finished *time.Time    `json:"finished,omitempty"`
	// TraceID is the distributed trace the submission belonged to, so a
	// client polling job status can fetch /debug/traces?trace=<id>.
	TraceID string `json:"traceId,omitempty"`
}

func jobJSON(snap jobs.Snapshot) jobPayload {
	p := jobPayload{
		ID:       snap.ID,
		State:    string(snap.State),
		Progress: snap.Progress,
		Result:   snap.Result,
		Created:  snap.Created,
		TraceID:  snap.Trace.TraceID,
	}
	if snap.Err != nil {
		p.Error = snap.Err.Error()
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		p.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		p.Finished = &t
	}
	return p
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		snaps := s.jobs.List()
		out := make([]jobPayload, len(snaps))
		for i, snap := range snaps {
			out[i] = jobJSON(snap)
		}
		writeJSON(w, map[string]any{"jobs": out})
		return
	}
	s.submitJob(w, r)
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	req, err := jobs.ParseRequest(body)
	if err = s.validate(&req, err); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// Resolve the reference and pins now so a bad submission fails at POST
	// time, not minutes later inside the queue; the task resolves again at
	// run time because the graph can change while the job waits.
	if _, status, err := s.resolve(&req, nil); err != nil {
		s.writeError(w, r, status, err)
		return
	}
	// An Idempotency-Key header makes retried submissions safe: the same
	// key lands on the already-enqueued job instead of creating a second
	// one. The sanitizer mirrors X-Request-ID's (header values must stay
	// log- and JSON-safe).
	idemKey := apiclient.SanitizeRequestID(r.Header.Get("Idempotency-Key"))
	// The submitter's trace position (extracted from traceparent by the
	// middleware) crosses the queue boundary with the job, so worker-side
	// solve spans join the same trace as this POST.
	sc := trace.SpanContextFromContext(r.Context())
	snap, replayed, err := s.jobs.SubmitIdempotent(idemKey, sc, s.jobTask(sc, time.Now(), req))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.met.rejected.With("/v1/jobs", "queue_full").Inc()
		// A saturated queue is exactly when an operator wants to know what
		// the workers are doing: snapshot heap+goroutine profiles (cooldown
		// keeps a rejection storm from flooding the ring).
		s.capturer.Trigger("job_queue_saturated")
		s.writeError(w, r, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if replayed {
		// 200, not 202: nothing new was accepted; the body is the live
		// state of the original submission.
		w.Header().Set("Idempotency-Replayed", "true")
		writeJSON(w, jobJSON(snap))
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, jobJSON(snap))
}

// jobTask builds the queued work: resolve the request fresh and answer it
// with progress streaming, keeping the same payload the synchronous
// endpoint would write, already encoded. When the submission carried a
// trace context, the worker opens a "job solve" root span continuing it —
// with a "queued" child covering the time spent waiting for a worker — so
// solver iteration spans land in the submitter's trace.
func (s *Server) jobTask(sc trace.SpanContext, submitted time.Time, req jobs.Request) jobs.Task {
	return func(ctx context.Context, update func(jobs.Progress)) (any, error) {
		// Worker-side solves profile under the submission endpoint; the job
		// ID itself arrives via jobs.IDFrom in the solver path.
		ctx = withEndpoint(ctx, "/v1/jobs")
		if sc.Valid() && s.tracer != nil {
			span := s.tracer.RootContext("job solve", sc)
			span.SetAttr("graph", req.GraphRef)
			if id := jobs.IDFrom(ctx); id != "" {
				span.SetAttr("jobID", id)
			}
			span.ChildAt("queued", submitted).End()
			defer span.End()
			ctx = trace.NewContext(ctx, span)
		}
		t, _, err := s.resolve(&req, nil)
		if err != nil {
			return nil, err
		}
		target := t.opts.K
		t.opts.Progress = func(ev prefcover.ProgressEvent) {
			update(jobs.Progress{Step: ev.Step, Target: target, Cover: ev.Cover})
		}
		buf := getRespBuf()
		defer putRespBuf(buf)
		if *buf, _, err = s.answer(ctx, t, *buf); err != nil {
			return nil, err
		}
		// Keep the encoded bytes, not a response holding a float per node;
		// status polls re-emit them unchanged.
		return json.RawMessage(bytes.Clone(bytes.TrimSuffix(*buf, []byte("\n")))), nil
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("bad job path %q", r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodGet:
		snap, ok := s.jobs.Get(id)
		if !ok {
			s.writeError(w, r, http.StatusNotFound, fmt.Errorf("job %q not found", id))
			return
		}
		writeJSON(w, jobJSON(snap))
	case http.MethodDelete:
		switch {
		case s.jobs.Cancel(id):
			w.WriteHeader(http.StatusAccepted)
			writeJSON(w, map[string]string{"id": id, "state": "canceling"})
		case s.jobs.Remove(id):
			w.WriteHeader(http.StatusNoContent)
		default:
			s.writeError(w, r, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		}
	default:
		s.allowMethods(w, r, http.MethodGet, http.MethodDelete)
	}
}
