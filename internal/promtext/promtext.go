// Package promtext is the metrics snapshot model (Metrics: families of
// samples) and its Prometheus text exposition format (version 0.0.4):
// `# HELP` / `# TYPE` headers followed by `name{label="value",...} value`
// sample lines, with Go-quoted label values (a superset of the format's
// \\ \" \n escapes). metrics.Registry.Snapshot builds a Metrics
// straight from its atomics, internal/tsdb keeps snapshots in its ring,
// and Write renders one for /metrics; Parse is only for bytes another
// process wrote (the gateway's node scrapes, the serving benchmark).
//
// Parse canonicalizes: label pairs are sorted by name, a family is
// synthesized (type "untyped") for samples with no preceding `# TYPE`,
// and optional trailing timestamps are dropped. Parse∘Write is the
// identity on parsed metrics — the property the fuzz target holds
// against arbitrary input.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a sample's label set: sorted by name when parsed, in declared
// order (a histogram's le last) in a registry snapshot.
type Labels []Label

// Get returns the value of the named label.
func (ls Labels) Get(name string) (string, bool) {
	for _, l := range ls {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// Matches reports whether every (name, value) in match appears in ls.
func (ls Labels) Matches(match map[string]string) bool {
	for name, want := range match {
		got, ok := ls.Get(name)
		if !ok || got != want {
			return false
		}
	}
	return true
}

// Key joins the label set into one comparable string (0x1f-separated,
// the same convention the metrics registry uses for series keys).
func (ls Labels) Key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Without returns a copy of ls with the named label removed.
func (ls Labels) Without(name string) Labels {
	out := make(Labels, 0, len(ls))
	for _, l := range ls {
		if l.Name != name {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// With returns a sorted copy of ls with (name, value) set, replacing any
// existing label of that name.
func (ls Labels) With(name, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	replaced := false
	for _, l := range ls {
		if l.Name == name {
			out = append(out, Label{Name: name, Value: value})
			replaced = true
			continue
		}
		out = append(out, l)
	}
	if !replaced {
		out = append(out, Label{Name: name, Value: value})
		sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	}
	return out
}

// Sample is one sample line: Name carries any histogram suffix
// (_bucket, _sum, _count) verbatim.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
	// Int marks a value the registry holds as an integer (counters,
	// integer gauges, bucket counts): Write prints it in decimal, as %g
	// would print 3866624 as 3.866624e+06. Parse leaves it false.
	Int bool
}

// Family groups the samples under one `# TYPE` header.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | summary | untyped
	Samples []Sample
}

// Metrics is one snapshot: a registry read or a parsed scrape. Families
// must not change once Samples has been called.
type Metrics struct {
	Families []Family

	indexOnce sync.Once
	index     map[string][]Sample // sample name -> samples, built on first query
}

// Family returns the named family, or nil.
func (m *Metrics) Family(name string) *Family {
	for i := range m.Families {
		if m.Families[i].Name == name {
			return &m.Families[i]
		}
	}
	return nil
}

// Samples returns every sample with the given sample name (for
// histograms that means the suffixed names: "x_bucket", "x_sum", ...).
// Safe for concurrent use.
func (m *Metrics) Samples(name string) []Sample {
	m.indexOnce.Do(func() {
		m.index = make(map[string][]Sample)
		for i := range m.Families {
			for _, s := range m.Families[i].Samples {
				m.index[s.Name] = append(m.index[s.Name], s)
			}
		}
	})
	return m.index[name]
}

// belongs reports whether a sample named sampleName is part of family f
// (exact match, or the distribution suffixes on histogram/summary
// families).
func belongs(f *Family, sampleName string) bool {
	if sampleName == f.Name {
		return true
	}
	switch f.Type {
	case "histogram":
		return sampleName == f.Name+"_bucket" || sampleName == f.Name+"_sum" || sampleName == f.Name+"_count"
	case "summary":
		return sampleName == f.Name+"_sum" || sampleName == f.Name+"_count"
	}
	return false
}

// validName reports whether s is a legal metric or label identifier.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9') || (!label && c == ':')
		if !ok {
			return false
		}
	}
	return true
}

// Parse reads one scrape in the text exposition format. Unknown comment
// lines are skipped; malformed sample or header lines are errors (the
// parser guards the federation path, where silently dropping a node's
// series would corrupt cluster aggregates).
func Parse(r io.Reader) (*Metrics, error) {
	m := &Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	pendingHelp := make(map[string]string)
	var cur *Family
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimLeft(rest, " ")
			switch {
			case strings.HasPrefix(rest, "HELP "):
				name, help, _ := strings.Cut(strings.TrimPrefix(rest, "HELP "), " ")
				if !validName(name, false) {
					return nil, fmt.Errorf("promtext: line %d: bad HELP metric name %q", lineNo, name)
				}
				if cur != nil && cur.Name == name && cur.Help == "" {
					cur.Help = help
				} else {
					pendingHelp[name] = help
				}
			case strings.HasPrefix(rest, "TYPE "):
				fields := strings.Fields(strings.TrimPrefix(rest, "TYPE "))
				if len(fields) != 2 {
					return nil, fmt.Errorf("promtext: line %d: bad TYPE line %q", lineNo, line)
				}
				name, typ := fields[0], fields[1]
				if !validName(name, false) {
					return nil, fmt.Errorf("promtext: line %d: bad TYPE metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("promtext: line %d: unknown metric type %q", lineNo, typ)
				}
				m.Families = append(m.Families, Family{Name: name, Help: pendingHelp[name], Type: typ})
				delete(pendingHelp, name)
				cur = &m.Families[len(m.Families)-1]
			default:
				// Plain comment; ignored.
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		if cur == nil || !belongs(cur, s.Name) {
			// A sample with no (matching) TYPE header: synthesize an
			// untyped family so nothing is dropped.
			m.Families = append(m.Families, Family{Name: s.Name, Help: pendingHelp[s.Name], Type: "untyped"})
			delete(pendingHelp, s.Name)
			cur = &m.Families[len(m.Families)-1]
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return m, nil
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '{' || c == ' ' || c == '\t' {
			break
		}
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name, false) {
		return s, fmt.Errorf("bad sample name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		s.Labels, rest, err = parseLabels(rest)
		if err != nil {
			return s, err
		}
	}
	rest = strings.TrimLeft(rest, " \t")
	// An optional integer timestamp may trail the value; it is dropped
	// (the tsdb stamps snapshots with its own clock).
	valueText := rest
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		valueText = rest[:j]
		tsText := strings.TrimSpace(rest[j:])
		if tsText != "" {
			if _, err := strconv.ParseInt(tsText, 10, 64); err != nil {
				return s, fmt.Errorf("bad timestamp %q", tsText)
			}
		}
	}
	v, err := strconv.ParseFloat(valueText, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q", valueText)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block, returning the sorted label
// set and the remainder of the line.
func parseLabels(in string) (Labels, string, error) {
	var ls Labels
	rest := in[1:] // past '{'
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			rest = rest[1:]
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		name := strings.TrimSpace(rest[:eq])
		if !validName(name, true) {
			return nil, "", fmt.Errorf("bad label name %q", name)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label %s: value is not quoted", name)
		}
		end := quotedEnd(rest)
		if end < 0 {
			return nil, "", fmt.Errorf("label %s: unterminated quoted value", name)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: bad quoted value: %v", name, err)
		}
		ls = append(ls, Label{Name: name, Value: val})
		rest = strings.TrimLeft(rest[end+1:], " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			rest = rest[1:]
			break
		}
		return nil, "", fmt.Errorf("label %s: expected , or } after value", name)
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls, rest, nil
}

// quotedEnd returns the index of the closing quote of a string starting
// with `"`, honoring backslash escapes; -1 when unterminated.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// Write renders m in the exposition format: HELP and TYPE headers per
// family, then its samples with Go-quoted label values and %g floats
// (decimal integers for Int samples). A registry snapshot renders the
// registry's /metrics bytes; a parsed scrape renders its canonical form.
func Write(w io.Writer, m *Metrics) error {
	var b []byte
	for i := range m.Families {
		f := &m.Families[i]
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			for j, l := range s.Labels {
				if j == 0 {
					b = append(b, '{')
				} else {
					b = append(b, ',')
				}
				b = append(b, l.Name...)
				b = append(b, '=')
				b = strconv.AppendQuote(b, l.Value)
			}
			if len(s.Labels) > 0 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			if s.Int {
				b = strconv.AppendInt(b, int64(s.Value), 10)
			} else {
				b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}
