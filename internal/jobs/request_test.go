package jobs

import (
	"math"
	"net/url"
	"reflect"
	"testing"
)

// TestRequestResolvedStrategy: the legacy "lazy" and "workers" fields keep
// parsing and map onto the strategy they always selected; an explicit
// "strategy" wins over them.
func TestRequestResolvedStrategy(t *testing.T) {
	for body, want := range map[string]string{
		`{"graph_ref":"g","variant":"i","k":5}`:                                  "lazy",
		`{"graph_ref":"g","variant":"i","k":5,"lazy":true}`:                      "lazy",
		`{"graph_ref":"g","variant":"i","k":5,"lazy":false}`:                     "scan",
		`{"graph_ref":"g","variant":"i","k":5,"lazy":false,"workers":4}`:         "parallel",
		`{"graph_ref":"g","variant":"i","k":5,"workers":4}`:                      "lazy",
		`{"graph_ref":"g","variant":"i","k":5,"lazy":false,"strategy":"sketch"}`: "sketch",
		`{"graph_ref":"g","variant":"i","k":5,"strategy":"lazyflat"}`:            "lazyflat",
	} {
		req, err := ParseRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got, err := req.ResolvedStrategy()
		if err != nil || got != want {
			t.Errorf("%s: strategy %q (%v), want %q", body, got, err, want)
		}
	}
	if _, err := ParseRequest([]byte(`{"graph_ref":"g","variant":"i","k":5,"strategy":"fast"}`)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestQueryRoundTrip: Query encodes a request so that ParseQuery reads the
// same request back, pin labels with URL syntax in them included.
func TestQueryRoundTrip(t *testing.T) {
	scan := false
	for _, req := range []Request{
		{Variant: "i", K: 5},
		{Variant: "n", Threshold: 0.3, Lazy: &scan, Workers: 4, Strategy: "parallel",
			Pins: []string{"c++", "A&B", "sku#1", "50%off"}},
		{Variant: "independent", K: 3, Threshold: 1e-7},
	} {
		got, err := ParseQuery(req.Query())
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("%+v: query %q parses to %+v (%v)", req, req.Query().Encode(), got, err)
		}
	}
}

// TestValidateRejectsNonFiniteThreshold: NaN fails the threshold range
// check, from a query and from a request built in code.
func TestValidateRejectsNonFiniteThreshold(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		if _, err := ParseQuery(url.Values{"variant": {"i"}, "threshold": {v}}); err == nil {
			t.Errorf("threshold=%s accepted", v)
		}
	}
	for _, k := range []int{0, 5} {
		req := Request{Variant: "i", K: k, Threshold: math.NaN()}
		if err := req.Validate(); err == nil {
			t.Errorf("k=%d threshold NaN accepted", k)
		}
	}
}

// TestGraphRef: the sniff finds a reference body's graph_ref and nothing
// in an inline graph or a body that is not JSON.
func TestGraphRef(t *testing.T) {
	for body, want := range map[string]string{
		`{"graph_ref":"yc"}`:                              "yc",
		`{"graph_ref":"yc","variant":"i","k":3}`:          "yc",
		`{"nodes":[{"label":"a","weight":1}],"edges":[]}`: "",
		`{"graph_ref":"yc"`:                               "",
		"P\x00binary":                                     "",
	} {
		if got := GraphRef([]byte(body)); got != want {
			t.Errorf("GraphRef(%q) = %q, want %q", body, got, want)
		}
	}
}
