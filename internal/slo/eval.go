package slo

import (
	"time"

	"prefcover/internal/tsdb"
)

// Burn-rate thresholds, per the multi-window multi-burn-rate convention:
// an availability burn ≥ CriticalBurn on both windows exhausts a 30-day
// error budget in under ~2 days (page-worthy); ≥ WarnBurn exhausts it in
// under ~5 days (ticket-worthy). Latency objectives use the observed/
// target ratio directly: ≥ LatencyWarnBurn means the quantile is over
// target, ≥ LatencyCriticalBurn means it is at double the target.
const (
	CriticalBurn        = 14.4
	WarnBurn            = 6.0
	LatencyWarnBurn     = 1.0
	LatencyCriticalBurn = 2.0
)

// Severity grades a breach.
type Severity string

const (
	SeverityNone     Severity = ""
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// evalConfig names the metric families and windows the evaluator reads.
// Empty names read the single-node serving metrics; the gateway names its
// cluster-aggregated families.
type evalConfig struct {
	// FastWindow catches fresh outages (default 5m); SlowWindow
	// suppresses blips (default 1h). An alert needs the burn over
	// threshold on BOTH.
	FastWindow time.Duration
	SlowWindow time.Duration
	// RequestsMetric is a counter labeled endpoint and code (default
	// prefcover_http_requests_total); 5xx codes count against
	// availability.
	RequestsMetric string
	// LatencyMetric is a histogram labeled endpoint (default
	// prefcover_http_request_duration_seconds).
	LatencyMetric string
}

// Evaluator defaults.
const (
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = time.Hour
)

func (c evalConfig) withDefaults() evalConfig {
	if c.FastWindow <= 0 {
		c.FastWindow = DefaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = DefaultSlowWindow
	}
	if c.RequestsMetric == "" {
		c.RequestsMetric = "prefcover_http_requests_total"
	}
	if c.LatencyMetric == "" {
		c.LatencyMetric = "prefcover_http_request_duration_seconds"
	}
	return c
}

// WindowBurn is one window's worth of evidence for an objective.
type WindowBurn struct {
	// Burn is the budget burn rate (avail) or observed/target ratio
	// (latency). 0 when OK is false.
	Burn float64 `json:"burn"`
	// Value is the raw measurement: the 5xx error ratio for avail, the
	// observed quantile in seconds for latency.
	Value float64 `json:"value"`
	// OK reports whether the window had enough history and traffic to
	// measure. Alerts never fire on missing data.
	OK bool `json:"ok"`
}

// Evaluation is one objective's current standing.
type Evaluation struct {
	Objective Objective  `json:"-"`
	Fast      WindowBurn `json:"fast"`
	Slow      WindowBurn `json:"slow"`
	// Severity is the highest grade whose burn threshold both windows
	// meet; SeverityNone when healthy or unmeasurable.
	Severity Severity `json:"severity,omitempty"`
}

// WorstBurn is the lower of the two window burns when both measured (the
// value that must clear a threshold for the alert to act), else the one
// that did, else 0.
func (e Evaluation) WorstBurn() float64 {
	switch {
	case e.Fast.OK && e.Slow.OK:
		if e.Fast.Burn < e.Slow.Burn {
			return e.Fast.Burn
		}
		return e.Slow.Burn
	case e.Fast.OK:
		return e.Fast.Burn
	case e.Slow.OK:
		return e.Slow.Burn
	}
	return 0
}

// evaluate computes one objective's burns from the tsdb history.
func evaluate(db *tsdb.DB, cfg evalConfig, o Objective) Evaluation {
	ev := Evaluation{Objective: o}
	ev.Fast = windowBurn(db, cfg, o, cfg.FastWindow)
	ev.Slow = windowBurn(db, cfg, o, cfg.SlowWindow)
	ev.Severity = grade(o, ev)
	return ev
}

func windowBurn(db *tsdb.DB, cfg evalConfig, o Objective, window time.Duration) WindowBurn {
	older, newer, _, ok := db.Window(window)
	if !ok {
		return WindowBurn{}
	}
	rows := tsdb.RED(older, newer, cfg.RequestsMetric, cfg.LatencyMetric, map[string]string{"endpoint": o.Endpoint}, "endpoint")
	if len(rows) == 0 {
		return WindowBurn{}
	}
	if o.Kind.Latency() {
		observed, ok := tsdb.Quantile(o.Kind.Quantile(), rows[0].Buckets)
		if !ok {
			return WindowBurn{}
		}
		return WindowBurn{Burn: observed / o.Target, Value: observed, OK: true}
	}
	if rows[0].Requests <= 0 {
		// No traffic in the window: nothing to burn the budget.
		return WindowBurn{}
	}
	ratio := rows[0].Errors / rows[0].Requests
	return WindowBurn{Burn: ratio / o.Budget(), Value: ratio, OK: true}
}

// grade maps an evaluation onto a severity: both windows must be
// measurable and over the threshold.
func grade(o Objective, ev Evaluation) Severity {
	if !ev.Fast.OK || !ev.Slow.OK {
		return SeverityNone
	}
	warn, crit := WarnBurn, CriticalBurn
	if o.Kind.Latency() {
		warn, crit = LatencyWarnBurn, LatencyCriticalBurn
	}
	switch {
	case ev.Fast.Burn >= crit && ev.Slow.Burn >= crit:
		return SeverityCritical
	case ev.Fast.Burn >= warn && ev.Slow.Burn >= warn:
		return SeverityWarning
	}
	return SeverityNone
}
