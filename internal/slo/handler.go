package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"prefcover/internal/debugpage"
)

// DebugHandler serves the monitor at /debug/slo: an HTML dashboard by
// default, JSON for Accept: application/json — /debug/traces' negotiation
// with HTML first, because this page is operator-first. A nil monitor
// serves DisabledHandler.
func (m *Monitor) DebugHandler() http.Handler {
	if m == nil {
		return DisabledHandler()
	}
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
		p := debugpage.New("prefcoverd slo", "SLO monitor disabled")
		p.Para("Start prefcoverd with ", debugpage.Code("-slo-spec"), " (e.g. ", debugpage.Code("avail:/v1/solve:99.9"),
			") to enable burn-rate alerting.")
		p.Write(w)
	})
}

// negotiate is the prelude both /debug/slo handlers share: GET or HEAD
// (405 otherwise), then HTML (the default, also */*) or JSON by Accept
// (406 otherwise). ok is false once it has answered the request itself.
func negotiate(w http.ResponseWriter, r *http.Request) (wantJSON, ok bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		debugpage.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false, false
	}
	header := r.Header.Get("Accept")
	switch debugpage.Negotiate(header, "text/html", "application/json") {
	case "text/html":
		return false, true
	case "application/json":
		return true, true
	}
	debugpage.Error(w, http.StatusNotAcceptable, fmt.Errorf("not acceptable %q (use text/html or application/json)", header))
	return false, false
}

// stateClasses colour alert states in the HTML table.
var stateClasses = map[State]string{StateFiring: "bad", StatePending: "drain", StateResolved: "ok", StateInactive: "idle"}

func burnCell(w WindowBurn) string {
	if !w.OK {
		return "–"
	}
	return fmt.Sprintf("%.2f× (%.4g)", w.Burn, w.Value)
}

func writeHTML(w http.ResponseWriter, st Status) {
	p := debugpage.New("prefcoverd slo", "SLO burn-rate monitor")
	p.Row("spec", debugpage.Code(st.Spec))
	p.Row("windows", fmt.Sprintf("fast %s / slow %s, for %s", st.FastWindow, st.SlowWindow, st.ForDuration))
	p.Row("ticks", fmt.Sprintf("%d (%d snapshots retained, %d transitions)", st.Ticks, st.Snapshots, st.Transitions))
	if !st.LastTick.IsZero() {
		p.Row("last tick", st.LastTick.UTC().Format(time.RFC3339))
	}
	if st.ScrapeError != "" {
		p.Row("scrape error", st.ScrapeError)
	}
	p.Section("Alerts")
	if len(st.Alerts) == 0 {
		p.Para("No objectives configured.")
	} else {
		p.Table("objective", "alert", "state", "severity", "fast burn", "slow burn", "since")
		for _, a := range st.Alerts {
			since := ""
			if !a.Since.IsZero() {
				since = a.Since.UTC().Format(time.RFC3339)
			}
			p.Row(debugpage.Code(a.Objective), a.Alert, debugpage.State(stateClasses[a.State], string(a.State)), a.Severity, burnCell(a.Fast), burnCell(a.Slow), since)
		}
	}
	p.Write(w)
}
