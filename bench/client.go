package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// requestTimeout bounds one request; a request that times out fails.
const requestTimeout = 30 * time.Second

// client talks to one deployment over a transport capped at conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what one request returned. body lives in a pooled buffer
// until release.
type reply struct {
	status  int
	header  http.Header
	cache   string // X-Prefcover-Cache
	body    []byte
	gotConn time.Time
	done    time.Time // last byte read
	buf     *bytes.Buffer
}

// bodies recycles response buffers: a warm solve answer is about a
// megabyte, and allocating one per request would keep the benchmark's own
// garbage collector busy beside the daemon it measures.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (r *reply) release() {
	r.buf.Reset()
	bodies.Put(r.buf)
}

// do sends one request and reads the whole response; the caller releases
// the reply.
func (c *client) do(ctx context.Context, method, path, contentType string, body []byte) (*reply, error) {
	rep := &reply{buf: bodies.Get().(*bytes.Buffer)}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { rep.gotConn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		rep.release()
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		rep.release()
		return nil, err
	}
	defer resp.Body.Close()
	_, err = rep.buf.ReadFrom(resp.Body)
	rep.done = time.Now()
	if err != nil {
		rep.release()
		return nil, err
	}
	rep.body, rep.status, rep.header = rep.buf.Bytes(), resp.StatusCode, resp.Header
	rep.cache = resp.Header.Get("X-Prefcover-Cache")
	return rep, nil
}

// solvePath is the /v1/solve URL of o.
func solvePath(o op) string {
	q := url.Values{"variant": {variantParam}}
	if o.K > 0 {
		q.Set("k", strconv.Itoa(o.K))
	}
	if o.T > 0 {
		q.Set("threshold", strconv.FormatFloat(o.T, 'g', -1, 64))
	}
	q["pin"] = o.Pins
	return "/v1/solve?" + q.Encode()
}

func refBody(name string) []byte {
	b, _ := json.Marshal(map[string]string{"graph_ref": name})
	return b
}

func jobBody(o op, name string) []byte {
	b, _ := json.Marshal(map[string]any{"graph_ref": name, "variant": variantParam, "k": o.K,
		"threshold": o.T, "pins": o.Pins})
	return b
}

// solution is the part of a solve response the oracle checks.
type solution struct {
	K       int       `json:"k"`
	Cover   float64   `json:"cover"`
	Reached bool      `json:"reached"`
	Order   []string  `json:"order"`
	Gains   []float64 `json:"gains"`
}

// jobStatus is the part of a job status the benchmark reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Result   *solution  `json:"result"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// withoutCoverage drops the per-item "coverage" array, one float per graph
// node, from a solve or job payload before decoding: decoding it costs the
// client about as much CPU as encoding it costs the server, and on a
// two-CPU host that would compete with the daemon being measured.
func withoutCoverage(body []byte) []byte {
	i := bytes.Index(body, []byte(`,"coverage":[`))
	if i < 0 {
		return body
	}
	j := bytes.IndexByte(body[i:], ']')
	if j < 0 {
		return body
	}
	return append(body[:i:i], body[i+j+1:]...)
}

func decodeSolution(body []byte) (*solution, error) {
	var s solution
	if err := json.Unmarshal(withoutCoverage(body), &s); err != nil {
		return nil, fmt.Errorf("decoding solve response: %w", err)
	}
	return &s, nil
}

func decodeJob(body []byte) (*jobStatus, error) {
	var j jobStatus
	if err := json.Unmarshal(withoutCoverage(body), &j); err != nil {
		return nil, fmt.Errorf("decoding job status: %w", err)
	}
	return &j, nil
}

// httpError describes a non-success response.
func httpError(method, path string, rep *reply) error {
	msg := rep.body
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s %s: HTTP %d: %s", method, path, rep.status, bytes.TrimSpace(msg))
}
