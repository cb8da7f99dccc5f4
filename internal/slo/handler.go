package slo

import (
	"encoding/json"
	"fmt"
	"html"
	"mime"
	"net/http"
	"strings"
	"time"
)

// DebugHandler serves the monitor at /debug/slo: an HTML dashboard by
// default (also text/html), JSON for Accept: application/json — the same
// negotiation convention /debug/traces uses, inverted defaults because
// this page is operator-first.
func (m *Monitor) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wantJSON, ok := negotiate(w, r)
		if !ok {
			return
		}
		st := m.Status()
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeHTML(w, st)
	})
}

// DisabledHandler serves a /debug/slo explaining that no monitor is
// running (the daemon was started without -slo-spec/-scrape-interval).
func DisabledHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wantJSON, ok := negotiate(w, r)
		if !ok {
			return
		}
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(Status{Enabled: false})
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>prefcoverd slo</title></head><body>\n"+
			"<h1>SLO monitor disabled</h1>\n"+
			"<p>Start prefcoverd with <code>-slo-spec</code> (e.g. <code>avail:/v1/solve:99.9</code>) to enable burn-rate alerting.</p>\n"+
			"</body></html>\n")
	})
}

// negotiate is the prelude both /debug/slo handlers share: GET or HEAD
// (405 otherwise), then HTML (the default, also */*) or JSON by Accept
// (406 otherwise). ok is false once it has answered the request itself.
func negotiate(w http.ResponseWriter, r *http.Request) (wantJSON, ok bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false, false
	}
	header := r.Header.Get("Accept")
	if strings.TrimSpace(header) == "" {
		return false, true
	}
	for _, part := range strings.Split(header, ",") {
		mt, _, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		switch mt {
		case "text/html", "text/*", "*/*":
			return false, true
		case "application/json", "application/*":
			return true, true
		}
	}
	http.Error(w, fmt.Sprintf("not acceptable %q (use text/html or application/json)", header), http.StatusNotAcceptable)
	return false, false
}

// stateBadge colors a state for the HTML table.
func stateBadge(st State) string {
	color := "#888"
	switch st {
	case StateFiring:
		color = "#c0392b"
	case StatePending:
		color = "#e67e22"
	case StateResolved:
		color = "#27ae60"
	}
	return fmt.Sprintf("<span style=\"color:%s;font-weight:bold\">%s</span>", color, html.EscapeString(string(st)))
}

func burnCell(w WindowBurn) string {
	if !w.OK {
		return "<td>–</td>"
	}
	return fmt.Sprintf("<td>%.2f× (%.4g)</td>", w.Burn, w.Value)
}

func writeHTML(w http.ResponseWriter, st Status) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><title>prefcoverd slo</title></head><body>\n")
	b.WriteString("<h1>SLO burn-rate monitor</h1>\n")
	b.WriteString("<table border=\"1\" cellpadding=\"4\">\n")
	fmt.Fprintf(&b, "<tr><td>spec</td><td><code>%s</code></td></tr>\n", html.EscapeString(st.Spec))
	fmt.Fprintf(&b, "<tr><td>windows</td><td>fast %s / slow %s, for %s</td></tr>\n",
		html.EscapeString(st.FastWindow), html.EscapeString(st.SlowWindow), html.EscapeString(st.ForDuration))
	fmt.Fprintf(&b, "<tr><td>ticks</td><td>%d (%d snapshots retained, %d transitions)</td></tr>\n",
		st.Ticks, st.Snapshots, st.Transitions)
	if !st.LastTick.IsZero() {
		fmt.Fprintf(&b, "<tr><td>last tick</td><td>%s</td></tr>\n", st.LastTick.UTC().Format(time.RFC3339))
	}
	if st.ScrapeError != "" {
		fmt.Fprintf(&b, "<tr><td>scrape error</td><td>%s</td></tr>\n", html.EscapeString(st.ScrapeError))
	}
	b.WriteString("</table>\n")
	b.WriteString("<h2>Alerts</h2>\n")
	if len(st.Alerts) == 0 {
		b.WriteString("<p>No objectives configured.</p>\n")
	} else {
		b.WriteString("<table border=\"1\" cellpadding=\"4\">\n")
		b.WriteString("<tr><th>objective</th><th>alert</th><th>state</th><th>severity</th><th>fast burn</th><th>slow burn</th><th>since</th></tr>\n")
		for _, a := range st.Alerts {
			since := ""
			if !a.Since.IsZero() {
				since = a.Since.UTC().Format(time.RFC3339)
			}
			fmt.Fprintf(&b, "<tr><td><code>%s</code></td><td>%s</td><td>%s</td><td>%s</td>%s%s<td>%s</td></tr>\n",
				html.EscapeString(a.Objective), html.EscapeString(a.Alert), stateBadge(a.State),
				html.EscapeString(string(a.Severity)), burnCell(a.Fast), burnCell(a.Slow),
				html.EscapeString(since))
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	_, _ = w.Write([]byte(b.String()))
}
