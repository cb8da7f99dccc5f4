package metrics

import (
	"compress/gzip"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerGzipNegotiation covers the /metrics content negotiation:
// identity by default, gzip when the client asks for it, identity again
// when the client explicitly refuses gzip with q=0.
func TestHandlerGzipNegotiation(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("gz_total", "help", "endpoint")
	for i := 0; i < 50; i++ {
		c.With("/v1/solve").Inc()
	}
	want := "gz_total{endpoint=\"/v1/solve\"} 50"

	cases := []struct {
		name           string
		acceptEncoding string
		wantGzip       bool
	}{
		{"no header", "", false},
		{"gzip", "gzip", true},
		{"weighted list", "br;q=1.0, gzip;q=0.8, *;q=0.1", true},
		{"wildcard", "*", true},
		{"refused", "gzip;q=0", false},
		{"other codec only", "br", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", "/metrics", nil)
			if tc.acceptEncoding != "" {
				req.Header.Set("Accept-Encoding", tc.acceptEncoding)
			}
			rr := httptest.NewRecorder()
			Handler(reg.Snapshot).ServeHTTP(rr, req)
			if rr.Code != 200 {
				t.Fatalf("status = %d", rr.Code)
			}
			if got := rr.Header().Get("Vary"); got != "Accept-Encoding" {
				t.Fatalf("Vary = %q", got)
			}
			enc := rr.Header().Get("Content-Encoding")
			if tc.wantGzip {
				if enc != "gzip" {
					t.Fatalf("Content-Encoding = %q, want gzip", enc)
				}
				zr, err := gzip.NewReader(rr.Body)
				if err != nil {
					t.Fatalf("body is not gzip: %v", err)
				}
				body, err := io.ReadAll(zr)
				if err != nil {
					t.Fatalf("decompress: %v", err)
				}
				if !strings.Contains(string(body), want) {
					t.Fatalf("decompressed body missing %q:\n%s", want, body)
				}
			} else {
				if enc != "" {
					t.Fatalf("Content-Encoding = %q, want identity", enc)
				}
				if !strings.Contains(rr.Body.String(), want) {
					t.Fatalf("body missing %q:\n%s", want, rr.Body.String())
				}
			}
		})
	}
}

// TestGzipActuallyShrinks sanity-checks the satellite's motivation on a
// registry big enough to matter.
func TestGzipActuallyShrinks(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("shrink_seconds", "help", nil, "endpoint", "code")
	for _, ep := range []string{"/v1/solve", "/v1/graphs", "/v1/jobs", "/v1/events"} {
		for _, code := range []string{"200", "404", "429", "500"} {
			for i := 0; i < 10; i++ {
				h.With(ep, code).Observe(float64(i) / 100)
			}
		}
	}
	plain := httptest.NewRecorder()
	Handler(reg.Snapshot).ServeHTTP(plain, httptest.NewRequest("GET", "/metrics", nil))
	zipped := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	Handler(reg.Snapshot).ServeHTTP(zipped, req)
	if zipped.Body.Len()*4 >= plain.Body.Len() {
		t.Fatalf("gzip body %d not <1/4 of plain %d", zipped.Body.Len(), plain.Body.Len())
	}
}
