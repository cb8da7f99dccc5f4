package promtext

import (
	"math"
	"strings"
	"testing"
)

// famsEqual is a NaN-aware deep equality over parsed families (the fuzz
// property cannot use reflect.DeepEqual: NaN != NaN).
func famsEqual(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j := range fa.Samples {
			sa, sb := fa.Samples[j], fb.Samples[j]
			if sa.Name != sb.Name || len(sa.Labels) != len(sb.Labels) {
				return false
			}
			for k := range sa.Labels {
				if sa.Labels[k] != sb.Labels[k] {
					return false
				}
			}
			if sa.Value != sb.Value && !(math.IsNaN(sa.Value) && math.IsNaN(sb.Value)) {
				return false
			}
		}
	}
	return true
}

func TestParseSyntheticForms(t *testing.T) {
	in := strings.Join([]string{
		"# a stray comment",
		"",
		"# HELP hinted Has help but type comes later.",
		"# TYPE hinted gauge",
		"hinted 4",
		"bare_sample{x=\"1\"} 2.5 1700000000000",
		"# TYPE dur histogram",
		`dur_bucket{le="0.1"} 1`,
		`dur_bucket{le="+Inf"} 2`,
		"dur_sum 0.3",
		"dur_count 2",
		"after_hist 9",
	}, "\n") + "\n"
	m, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := len(m.Families); got != 4 {
		t.Fatalf("families = %d, want 4", got)
	}
	if f := m.Family("hinted"); f == nil || f.Help != "Has help but type comes later." || f.Type != "gauge" {
		t.Fatalf("hinted family wrong: %+v", f)
	}
	if f := m.Family("bare_sample"); f == nil || f.Type != "untyped" {
		t.Fatalf("bare_sample should synthesize an untyped family: %+v", f)
	}
	if s := m.Samples("bare_sample"); len(s) != 1 || s[0].Value != 2.5 {
		t.Fatalf("bare_sample sample wrong (timestamp must be tolerated): %+v", s)
	}
	if f := m.Family("dur"); f == nil || len(f.Samples) != 4 {
		t.Fatalf("histogram family should absorb _bucket/_sum/_count: %+v", f)
	}
	if f := m.Family("after_hist"); f == nil || f.Type != "untyped" {
		t.Fatalf("sample after histogram should start a fresh family: %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bad name 1",                 // space in name position → bad value
		"x{a=1} 2",                   // unquoted label value
		`x{a="1} 2`,                  // unterminated quote
		`x{a="1"`,                    // unterminated block
		"x{=\"v\"} 1",                // empty label name
		"x nope",                     // bad value
		"x 1 t",                      // bad timestamp
		"# TYPE x frobnitz",          // unknown type
		"# TYPE x",                   // missing type
		"# HELP {bad} h",             // bad help name
		"x{le=\"0.1\",} }",           // junk after label block
		strings.Repeat("x", 3) + "{", // unterminated brace
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestLabelsHelpers(t *testing.T) {
	ls := Labels{{"a", "1"}, {"m", "x"}}
	if got := ls.With("z", "9"); len(got) != 3 || got[2].Name != "z" {
		t.Fatalf("With append: %+v", got)
	}
	if got := ls.With("a", "2"); got[0].Value != "2" || len(got) != 2 {
		t.Fatalf("With replace: %+v", got)
	}
	if got := ls.Without("m"); len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("Without: %+v", got)
	}
	if Labels(nil).Key() != "" || ls.Key() == "" {
		t.Fatal("Key sanity")
	}
	if !ls.Matches(map[string]string{"a": "1"}) || ls.Matches(map[string]string{"a": "2"}) {
		t.Fatal("Matches sanity")
	}
}
