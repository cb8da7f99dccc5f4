package server

import (
	"time"

	"prefcover/internal/promtext"
	"prefcover/internal/slo"
)

// SLOConfig wires the burn-rate monitor into a server: the daemon's
// -slo-spec / -scrape-interval / -alert-webhook flags land here. Each
// interval the monitor appends the registry snapshot /metrics would serve
// (no HTTP hop, no text) to the tsdb ring that /debug/slo evaluations and
// the statusz RED table read from.
type SLOConfig struct {
	// Spec lists the objectives (see internal/slo's grammar). An empty
	// spec with a positive ScrapeInterval still snapshots history for
	// windowed queries, but never alerts.
	Spec slo.Spec
	// ScrapeInterval is the snapshot cadence (default 10s when the
	// monitor is enabled at all).
	ScrapeInterval time.Duration
	// FastWindow/SlowWindow/ForDuration tune the evaluator; zero values
	// use the slo defaults (5m/1h/30s).
	FastWindow  time.Duration
	SlowWindow  time.Duration
	ForDuration time.Duration
	// WebhookURL, when set, receives firing/resolved transitions as JSON
	// POSTs with retry.
	WebhookURL string
}

// enabled reports whether any knob asks for the monitor.
func (c SLOConfig) enabled() bool {
	return c.Spec.Enabled() || c.ScrapeInterval > 0
}

// newMonitor builds the server's self-scraping monitor. Tests reach the
// same machinery through Config.SLO plus Monitor().
func (s *Server) newMonitor(cfg SLOConfig) *slo.Monitor {
	var notifier slo.Notifier
	if cfg.WebhookURL != "" {
		notifier = &slo.WebhookNotifier{URL: cfg.WebhookURL}
	}
	return slo.NewMonitor(slo.MonitorOptions{
		Spec:     cfg.Spec,
		Scrape:   func() (*promtext.Metrics, error) { return s.snapshot(), nil },
		Interval: cfg.ScrapeInterval,
		Eval: slo.EvalConfig{
			FastWindow: cfg.FastWindow,
			SlowWindow: cfg.SlowWindow,
		},
		ForDuration: cfg.ForDuration,
		Alerts:      s.met.alerts,
		Logger:      s.logger,
		Notifier:    notifier,
	})
}

// Monitor exposes the SLO monitor; nil when the server was built without
// SLOConfig.
func (s *Server) Monitor() *slo.Monitor { return s.monitor }
