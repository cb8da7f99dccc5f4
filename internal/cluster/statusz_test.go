package cluster

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestGatewayStatuszREDWindow: the forwarded-traffic RED table reads the
// federation monitor's fast window (here the requests between the last
// two scrapes) and counts since boot when federation is off; like the
// node's page, it answers only GET.
func TestGatewayStatuszREDWindow(t *testing.T) {
	statusz := func(t *testing.T, base string, wants ...string) {
		t.Helper()
		resp, err := http.Get(base + "/debug/statusz")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(page), want) {
				t.Errorf("statusz missing %q", want)
			}
		}
	}

	fx := bootFederated(t, 1, func(o *Options) { o.SLOFastWindow = time.Nanosecond })
	defer fx.close()
	deadline := time.Now().Add(5 * time.Second)
	for fx.gw.Monitor().Status().Ticks == 0 { // the loop's immediate first tick
		if time.Now().After(deadline) {
			t.Fatal("monitor never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	hit(t, fx.gwTS.URL, "/v1/solve?variant=i&k=3", 3)
	fx.gw.ScrapeNodes()
	hit(t, fx.gwTS.URL, "/v1/solve?variant=i&k=3", 2)
	fx.gw.ScrapeNodes()
	row := "<td>" + fx.nodeTS[0].URL + "</td><td>/v1/solve</td>"
	statusz(t, fx.gwTS.URL, "<h2>Forwarded traffic (RED, fast SLO window, 1ns)</h2>", row+"<td>2</td>")

	// The node's method check: GET only, 405 with Allow otherwise.
	resp, err := http.Post(fx.gwTS.URL+"/debug/statusz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST /debug/statusz: code = %d, Allow = %q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	off := bootFederated(t, 1, func(o *Options) { o.ScrapeInterval = 0 })
	defer off.close()
	hit(t, off.gwTS.URL, "/v1/solve?variant=i&k=3", 3)
	row = "<td>" + off.nodeTS[0].URL + "</td><td>/v1/solve</td>"
	statusz(t, off.gwTS.URL, "<h2>Forwarded traffic (RED, since boot)</h2>", row+"<td>3</td>")
}
