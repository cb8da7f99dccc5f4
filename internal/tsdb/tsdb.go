// Package tsdb is a bounded in-memory time-series ring over periodic
// metrics snapshots. Each Append stores one snapshot (a registry read or
// a parsed scrape, both *promtext.Metrics) with its capture time;
// windowed queries — counter increases and rates, histogram-delta
// quantiles — are computed on demand by diffing the newest snapshot
// against the newest snapshot at or before the window start. Nothing is
// pre-aggregated: the ring holds raw snapshots, so any query works
// retroactively over the retained window. Delta and Quantile also answer
// since-boot questions from a single snapshot.
//
// The clock is injectable (Options.Now) so the SLO alert lifecycle tests
// can drive hours of burn deterministically in microseconds.
package tsdb

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prefcover/internal/promtext"
)

// Options configures a DB.
type Options struct {
	// Capacity bounds the snapshot ring; once full the oldest snapshot is
	// overwritten. 0 means DefaultCapacity.
	Capacity int
	// Now supplies the clock for Append and window anchoring; nil means
	// time.Now.
	Now func() time.Time
}

// DefaultCapacity retains ~85 minutes of history at a 10s scrape cadence
// — comfortably more than the 1h slow burn window the SLO evaluator
// needs, at a few MB for a typical registry.
const DefaultCapacity = 512

// snapshot is one retained scrape.
type snapshot struct {
	at time.Time
	m  *promtext.Metrics
}

// DB is the snapshot ring. All methods are safe for concurrent use.
type DB struct {
	now func() time.Time

	mu   sync.RWMutex
	ring []snapshot
	head int // next write position
	size int
}

// New returns an empty DB.
func New(opts Options) *DB {
	cap := opts.Capacity
	if cap <= 0 {
		cap = DefaultCapacity
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &DB{now: now, ring: make([]snapshot, cap)}
}

// Append stores a snapshot stamped with the DB clock.
func (db *DB) Append(m *promtext.Metrics) { db.AppendAt(db.now(), m) }

// AppendAt stores a snapshot with an explicit capture time. Snapshots
// must be appended in non-decreasing time order; an out-of-order append
// is dropped (a scrape that raced a clock step is worthless for deltas).
func (db *DB) AppendAt(at time.Time, m *promtext.Metrics) {
	if m == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.size > 0 {
		newest := db.ring[(db.head+len(db.ring)-1)%len(db.ring)]
		if at.Before(newest.at) {
			return
		}
	}
	db.ring[db.head] = snapshot{at: at, m: m}
	db.head = (db.head + 1) % len(db.ring)
	if db.size < len(db.ring) {
		db.size++
	}
}

// Len reports the number of retained snapshots.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.size
}

// nth returns the i-th snapshot in oldest-first order; caller holds the
// lock.
func (db *DB) nth(i int) snapshot {
	if db.size < len(db.ring) {
		return db.ring[i]
	}
	return db.ring[(db.head+i)%len(db.ring)]
}

// Window picks the (older, newer) snapshot pair bracketing a lookback
// window ending at the newest snapshot: newer is the newest snapshot,
// older is the newest snapshot at or before newer's time − window (the
// oldest retained snapshot when history is shorter than the window).
// elapsed is the time between the two — shorter than window when history
// is thin, longer when snapshots are sparse. Needs two snapshots.
func (db *DB) Window(window time.Duration) (older, newer *promtext.Metrics, elapsed time.Duration, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.size < 2 {
		return nil, nil, 0, false
	}
	last := db.nth(db.size - 1)
	cutoff := last.at.Add(-window)
	first := db.nth(0)
	// Binary search for the last snapshot with at <= cutoff.
	lo, hi := 0, db.size-2 // exclude newest
	for lo <= hi {
		mid := (lo + hi) / 2
		if !db.nth(mid).at.After(cutoff) {
			first = db.nth(mid)
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return first.m, last.m, last.at.Sub(first.at), true
}

// SeriesDelta is one series' increase between two snapshots.
type SeriesDelta struct {
	Labels   promtext.Labels
	Increase float64 // counter increase, reset-corrected
}

// Delta computes the reset-corrected increase of every series of the
// named sample matching the label filter, from older to newer. A series
// absent from older counts its full newer value (a new series starts
// from zero by counter contract), so a nil older gives the increases
// since the process started.
func Delta(older, newer *promtext.Metrics, name string, match map[string]string) []SeriesDelta {
	base := make(map[string]float64)
	if older != nil {
		for _, s := range older.Samples(name) {
			if s.Labels.Matches(match) {
				base[s.Labels.Key()] = s.Value
			}
		}
	}
	var deltas []SeriesDelta
	for _, s := range newer.Samples(name) {
		if !s.Labels.Matches(match) {
			continue
		}
		inc := s.Value
		if old, had := base[s.Labels.Key()]; had && s.Value >= old {
			inc = s.Value - old
		}
		// A newer value below the baseline means the counter reset
		// (process restart): the post-reset value is the best lower bound
		// on the true increase.
		deltas = append(deltas, SeriesDelta{Labels: s.Labels, Increase: inc})
	}
	return deltas
}

// Increases is Delta over the window's snapshot pair (see Window).
func (db *DB) Increases(name string, match map[string]string, window time.Duration) (deltas []SeriesDelta, elapsed time.Duration, ok bool) {
	older, newer, elapsed, ok := db.Window(window)
	if !ok {
		return nil, 0, false
	}
	return Delta(older, newer, name, match), elapsed, true
}

// RateSum is the summed increase of every matching series over the
// window, per second.
func (db *DB) RateSum(name string, match map[string]string, window time.Duration) (perSec float64, ok bool) {
	deltas, elapsed, ok := db.Increases(name, match, window)
	if !ok || elapsed <= 0 {
		return 0, false
	}
	sum := 0.0
	for _, d := range deltas {
		sum += d.Increase
	}
	return sum / elapsed.Seconds(), true
}

// Quantile estimates the q-quantile of a histogram's observations from
// the deltas of its _bucket series (Delta or Increases on name_bucket),
// with the linear interpolation Prometheus's histogram_quantile applies:
// matching series are merged per le bound, the target rank is located in
// its bucket and interpolated between the bucket's bounds. q clamps to
// [0, 1]; observations in the +Inf bucket clamp to the highest finite
// bound. ok is false for a NaN q, a delta with no observations, or only
// a +Inf bucket. Estimates are only as fine as the bucket layout.
func Quantile(q float64, buckets []SeriesDelta) (float64, bool) {
	if math.IsNaN(q) {
		return 0, false
	}
	type bkt struct{ le, cum float64 }
	byLE := make(map[float64]float64)
	for _, d := range buckets {
		leStr, has := d.Labels.Get("le")
		if !has {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64) // "+Inf" parses as +Inf
		if err != nil || math.IsNaN(le) {
			continue
		}
		byLE[le] += d.Increase
	}
	merged := make([]bkt, 0, len(byLE))
	for le, cum := range byLE {
		merged = append(merged, bkt{le, cum})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].le < merged[j].le })
	// Bucket counts are cumulative in the exposition format, and so are
	// their deltas: the last bucket holds the total.
	if len(merged) == 0 || merged[len(merged)-1].cum <= 0 {
		return 0, false
	}
	rank := math.Min(math.Max(q, 0), 1) * merged[len(merged)-1].cum
	prev := bkt{}
	for i, b := range merged {
		if b.cum-prev.cum > 0 && b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return prev.le, i > 0 // overflow: clamp to the highest finite bound
			}
			return prev.le + (b.le-prev.le)*((rank-prev.cum)/(b.cum-prev.cum)), true
		}
		prev = b
	}
	// rank beyond every bucket (a counter reset broke cumulativity):
	// clamp like the overflow case.
	n := len(merged)
	if math.IsInf(merged[n-1].le, 1) && n > 1 {
		return merged[n-2].le, true
	}
	return merged[n-1].le, true
}

// REDRow is one group's requests, errors and duration between two snapshots.
type REDRow struct {
	Group    []string // values of the grouping labels, in the order named
	Requests float64
	Errors   float64       // responses with a 5xx code
	Buckets  []SeriesDelta // the latency histogram's _bucket deltas, for Quantile
}

// RED joins requests, a counter labelled code, to latency, the histogram
// (named without _bucket) of the same requests, from older to newer as
// Delta does, over the series matching match. It groups rows by the
// values of the by labels, busiest first, and it alone decides that a
// 5xx code is an error.
func RED(older, newer *promtext.Metrics, requests, latency string, match map[string]string, by ...string) []REDRow {
	groups := make(map[string]*REDRow)
	row := func(ls promtext.Labels) *REDRow {
		group := make([]string, len(by))
		for i, name := range by {
			group[i], _ = ls.Get(name)
		}
		key := strings.Join(group, "\x00")
		if groups[key] == nil {
			groups[key] = &REDRow{Group: group}
		}
		return groups[key]
	}
	for _, d := range Delta(older, newer, requests, match) {
		r := row(d.Labels)
		r.Requests += d.Increase
		if code, _ := d.Labels.Get("code"); strings.HasPrefix(code, "5") {
			r.Errors += d.Increase
		}
	}
	for _, d := range Delta(older, newer, latency+"_bucket", match) {
		r := row(d.Labels)
		r.Buckets = append(r.Buckets, d)
	}
	rows := make([]REDRow, 0, len(groups))
	for _, r := range groups {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Requests != rows[j].Requests {
			return rows[i].Requests > rows[j].Requests
		}
		return slices.Compare(rows[i].Group, rows[j].Group) < 0
	})
	return rows
}

// Point is one (time, value) pair of a series trajectory.
type Point struct {
	At    time.Time
	Value float64
}

// Points returns the per-snapshot sum of matching series across the
// window, oldest first — raw gauge trajectories for sparklines.
func (db *DB) Points(name string, match map[string]string, window time.Duration) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.size == 0 {
		return nil
	}
	cutoff := db.nth(db.size - 1).at.Add(-window)
	var pts []Point
	for i := 0; i < db.size; i++ {
		snap := db.nth(i)
		if snap.at.Before(cutoff) {
			continue
		}
		sum, found := 0.0, false
		for _, s := range snap.m.Samples(name) {
			if s.Labels.Matches(match) {
				sum += s.Value
				found = true
			}
		}
		if found {
			pts = append(pts, Point{At: snap.at, Value: sum})
		}
	}
	return pts
}

// RatePoints converts a counter trajectory into per-interval rates:
// one point per adjacent snapshot pair, reset-corrected — the sparkline
// form of RateSum.
func (db *DB) RatePoints(name string, match map[string]string, window time.Duration) []Point {
	pts := db.Points(name, match, window)
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := pts[i].At.Sub(pts[i-1].At).Seconds()
		if dt <= 0 {
			continue
		}
		inc := pts[i].Value - pts[i-1].Value
		if inc < 0 {
			inc = pts[i].Value // counter reset
		}
		out = append(out, Point{At: pts[i].At, Value: inc / dt})
	}
	return out
}

// sparkRunes are the eight block glyphs Spark scales values onto.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as a unicode sparkline, scaled to the series'
// own min..max (a flat series renders as all-low).
func Spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
