package slo

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"

	"prefcover/internal/metrics"
	"prefcover/internal/promtext"
	"prefcover/internal/tsdb"
)

// Notifier receives alert transitions (the webhook implementation lives
// in notify.go; tests substitute their own).
type Notifier interface {
	Notify(ctx context.Context, t Transition) error
}

// MonitorOptions configures a Monitor.
type MonitorOptions struct {
	// Spec lists the objectives; an empty spec still scrapes (feeding
	// statusz sparklines) but never alerts.
	Spec Spec
	// Scrape produces one metrics snapshot per tick: the single-node
	// server's registry snapshot, or the gateway's registry plus its
	// federated families.
	Scrape func() (*promtext.Metrics, error)
	// Interval is the Start loop's cadence (default 10s). Tick can also
	// be driven externally (the gateway calls it from its scrape loop,
	// tests call it directly).
	Interval time.Duration
	// Eval names windows and metric families.
	Eval EvalConfig
	// ForDuration is the two-way alert hysteresis (default 30s).
	ForDuration time.Duration
	// Alerts, when non-nil, receives the alert lifecycle as
	// ALERTS{alertname,endpoint,severity,state} gauge series.
	Alerts *metrics.GaugeVec
	// Logger receives one structured record per transition.
	Logger *slog.Logger
	// Notifier, when non-nil, is called for every pending→firing and
	// firing→resolved transition (not pending flaps).
	Notifier Notifier
	// Now injects the clock (default time.Now).
	Now func() time.Time
}

// DefaultInterval is the self-scrape cadence.
const DefaultInterval = 10 * time.Second

// notifyTimeout bounds one notification delivery.
const notifyTimeout = 10 * time.Second

// Monitor owns the tsdb ring and the alert set for one metrics source.
// Tick is safe to call concurrently with Status and with itself.
type Monitor struct {
	scrape      func() (*promtext.Metrics, error)
	interval    time.Duration
	eval        EvalConfig
	forDur      time.Duration
	alertsGauge *metrics.GaugeVec
	logger      *slog.Logger
	notifier    Notifier
	now         func() time.Time
	db          *tsdb.DB

	// tickMu makes each Tick's scrape and append one step, so the ring's
	// newest snapshot is always the latest scrape.
	tickMu sync.Mutex

	mu          sync.Mutex
	spec        Spec
	alerts      map[string]*Alert // keyed by Objective.String()
	scrapeErr   error
	lastTick    time.Time
	ticks       int64
	transitions int64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
	notifyWG  sync.WaitGroup
	notifyCtx context.Context
	cancel    context.CancelFunc
}

// NewMonitor builds a monitor; call Start for the self-driving loop or
// Tick to drive it externally.
func NewMonitor(opts MonitorOptions) *Monitor {
	if opts.Scrape == nil {
		panic("slo: MonitorOptions.Scrape is required")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	forDur := opts.ForDuration
	if forDur <= 0 {
		forDur = DefaultForDuration
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Monitor{
		scrape:      opts.Scrape,
		interval:    interval,
		eval:        opts.Eval.withDefaults(),
		forDur:      forDur,
		alertsGauge: opts.Alerts,
		logger:      logger,
		notifier:    opts.Notifier,
		now:         now,
		db:          tsdb.New(tsdb.Options{Now: now}),
		spec:        opts.Spec,
		alerts:      make(map[string]*Alert),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		notifyCtx:   ctx,
		cancel:      cancel,
	}
	for _, o := range opts.Spec.Objectives {
		m.alerts[o.String()] = &Alert{Objective: o, State: StateInactive}
	}
	return m
}

// DB exposes the snapshot ring for read-side consumers (statusz
// sparklines).
func (m *Monitor) DB() *tsdb.DB { return m.db }

// StatusWindow picks the snapshots a statusz RED table compares, and the
// caption saying which: the monitor's fast window once its ring holds two
// snapshots, else everything reg counted since started. m may be nil (no
// monitor).
func StatusWindow(m *Monitor, reg *metrics.Registry, started time.Time) (older, newer *promtext.Metrics, elapsed time.Duration, scope string) {
	if m != nil {
		if older, newer, elapsed, ok := m.db.Window(m.eval.FastWindow); ok {
			return older, newer, elapsed, "fast SLO window, " + m.eval.FastWindow.String()
		}
	}
	return nil, reg.Snapshot(), time.Since(started), "since boot"
}

// Spec returns the objective set.
func (m *Monitor) Spec() Spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spec
}

// Windows reports the evaluation windows and hysteresis.
func (m *Monitor) Windows() (fast, slow, forDur time.Duration) {
	return m.eval.FastWindow, m.eval.SlowWindow, m.forDur
}

// Start launches the periodic scrape/evaluate loop; Close stops it.
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			ticker := time.NewTicker(m.interval)
			defer ticker.Stop()
			m.Tick()
			for {
				select {
				case <-m.stop:
					return
				case <-ticker.C:
					m.Tick()
				}
			}
		}()
	})
}

// Close stops the loop (if started) and waits for in-flight
// notifications; safe to call regardless of Start.
func (m *Monitor) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.startOnce.Do(func() { close(m.done) }) // never started: unblock the wait
	<-m.done
	m.cancel()
	m.notifyWG.Wait()
}

// Tick performs one scrape + evaluation round. Overlapping calls run one
// after the other, so MonitorOptions.Scrape must not call Tick.
func (m *Monitor) Tick() {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	snap, err := m.scrape()
	now := m.now()
	m.mu.Lock()
	m.lastTick = now
	m.ticks++
	m.scrapeErr = err
	if err != nil {
		m.mu.Unlock()
		m.logger.Warn("slo scrape failed", "error", err)
		return
	}
	m.db.AppendAt(now, snap)
	var fired []Transition
	for _, a := range m.alerts {
		ev := evaluate(m.db, m.eval, a.Objective)
		if t, changed := a.observe(ev, now, m.forDur); changed {
			m.transitions++
			fired = append(fired, t)
		}
	}
	m.publishLocked()
	m.mu.Unlock()

	for _, t := range fired {
		m.logger.Info("slo alert transition",
			"alert", t.Alert, "endpoint", t.Endpoint, "objective", t.Objective,
			"from", string(t.From), "to", string(t.To), "severity", string(t.Severity),
			"fast_burn", t.FastBurn, "slow_burn", t.SlowBurn)
		// Notify on the consequential edges only: an alert becoming real,
		// and an alert recovering. Pending flaps stay in logs.
		if m.notifier != nil && (t.To == StateFiring || t.To == StateResolved) {
			m.notifyWG.Add(1)
			go func(t Transition) {
				defer m.notifyWG.Done()
				ctx, cancel := context.WithTimeout(m.notifyCtx, notifyTimeout)
				defer cancel()
				if err := m.notifier.Notify(ctx, t); err != nil {
					m.logger.Warn("slo alert notification failed",
						"alert", t.Alert, "endpoint", t.Endpoint, "to", string(t.To), "error", err)
				}
			}(t)
		}
	}
}

// publishLocked projects the alert set onto the ALERTS gauge: the series
// for an alert's current state is 1, every other state/severity series
// that alert ever set is 0 (so a state change leaves an explicit falling
// edge rather than a stale 1). Caller holds m.mu.
func (m *Monitor) publishLocked() {
	if m.alertsGauge == nil {
		return
	}
	for _, a := range m.alerts {
		for _, sev := range []Severity{SeverityWarning, SeverityCritical} {
			for _, st := range []State{StatePending, StateFiring, StateResolved} {
				v := int64(0)
				if st == a.State && sev == a.Severity {
					v = 1
				}
				m.alertsGauge.With(a.Objective.AlertName(), a.Objective.Endpoint, string(sev), string(st)).Set(v)
			}
		}
	}
}

// Status is the /debug/slo snapshot.
type Status struct {
	Enabled     bool          `json:"enabled"`
	Spec        string        `json:"spec,omitempty"`
	FastWindow  string        `json:"fast_window"`
	SlowWindow  string        `json:"slow_window"`
	ForDuration string        `json:"for_duration"`
	LastTick    time.Time     `json:"last_tick"`
	Ticks       int64         `json:"ticks"`
	Transitions int64         `json:"transitions"`
	Snapshots   int           `json:"snapshots"`
	ScrapeError string        `json:"scrape_error,omitempty"`
	Alerts      []AlertStatus `json:"alerts"`
}

// AlertStatus is one alert's externally visible state.
type AlertStatus struct {
	Objective string     `json:"objective"`
	Alert     string     `json:"alert"`
	Endpoint  string     `json:"endpoint"`
	State     State      `json:"state"`
	Severity  Severity   `json:"severity,omitempty"`
	Since     time.Time  `json:"since"`
	Fast      WindowBurn `json:"fast"`
	Slow      WindowBurn `json:"slow"`
}

// Status snapshots the monitor for rendering.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Enabled:     m.spec.Enabled(),
		Spec:        m.spec.String(),
		FastWindow:  m.eval.FastWindow.String(),
		SlowWindow:  m.eval.SlowWindow.String(),
		ForDuration: m.forDur.String(),
		LastTick:    m.lastTick,
		Ticks:       m.ticks,
		Transitions: m.transitions,
		Snapshots:   m.db.Len(),
	}
	if m.scrapeErr != nil {
		st.ScrapeError = m.scrapeErr.Error()
	}
	for _, a := range m.alerts {
		st.Alerts = append(st.Alerts, AlertStatus{
			Objective: a.Objective.String(),
			Alert:     a.Objective.AlertName(),
			Endpoint:  a.Objective.Endpoint,
			State:     a.State,
			Severity:  a.Severity,
			Since:     a.Since,
			Fast:      a.Eval.Fast,
			Slow:      a.Eval.Slow,
		})
	}
	sort.Slice(st.Alerts, func(i, j int) bool { return st.Alerts[i].Objective < st.Alerts[j].Objective })
	return st
}
