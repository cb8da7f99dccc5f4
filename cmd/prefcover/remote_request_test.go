package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"prefcover/internal/jobs"
)

// TestRemoteRequestEncoding runs remote solve and remote job against a
// server that records what arrives. The node must parse the same request
// from the /v1/solve query and from the /v1/jobs body, with pin labels
// intact whatever URL syntax they contain, and with the knobs left at
// their defaults unsent.
func TestRemoteRequestEncoding(t *testing.T) {
	var query url.Values
	var jobBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" {
			jobBody, _ = io.ReadAll(r.Body)
		} else {
			query = r.URL.Query()
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"id":"j1","state":"queued"}`)
	}))
	defer ts.Close()

	pins := []string{"c++", "A&B", "sku#1", "50%off", "a b", "x=y"}
	scan := false
	for _, tc := range []struct {
		flags  []string
		want   jobs.Request
		unsent []string
	}{
		{[]string{"-k", "6", "-pins", strings.Join(pins, ",")},
			jobs.Request{Variant: "independent", K: 6, Pins: pins}, []string{"threshold", "lazy", "workers"}},
		{[]string{"-variant", "n", "-threshold", "0.75", "-lazy=false", "-workers", "3"},
			jobs.Request{Variant: "n", Threshold: 0.75, Lazy: &scan, Workers: 3}, []string{"k", "pin"}},
		{[]string{"-k", "2", "-workers", "1", "-threshold", "-0.5"},
			jobs.Request{Variant: "independent", K: 2}, []string{"threshold", "workers"}},
	} {
		args := append([]string{"-server", ts.URL, "-graph", "demo", "-retries", "0"}, tc.flags...)
		if err := runRemoteSolve(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		if err := runRemoteJob(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		got, err := jobs.ParseQuery(query)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: /v1/solve query %v parses to %+v (%v), want %+v", tc.flags, query, got, err, tc.want)
		}
		for _, name := range tc.unsent {
			if query.Has(name) {
				t.Errorf("%v: query sends %s=%q", tc.flags, name, query.Get(name))
			}
		}
		job, err := jobs.ParseRequest(jobBody)
		tc.want.GraphRef = "demo"
		if err != nil || !reflect.DeepEqual(job, tc.want) {
			t.Errorf("%v: /v1/jobs body %s parses to %+v (%v), want %+v", tc.flags, jobBody, job, err, tc.want)
		}
	}
}
