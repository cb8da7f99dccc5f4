package debugpage

import (
	"fmt"
	"mime"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The Accept parsers Negotiate replaced, kept verbatim as references:
// treeFromAccept served /debug/traces, sloAccept is the Accept half of
// the /debug/slo handlers' negotiate, and graphFormatFromAccept served
// graph downloads.

func treeFromAccept(header string) (bool, error) {
	if strings.TrimSpace(header) == "" {
		return false, nil
	}
	for _, part := range strings.Split(header, ",") {
		mt, _, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		switch mt {
		case "application/json", "application/*", "*/*":
			return false, nil
		case "text/plain", "text/*":
			return true, nil
		}
	}
	return false, fmt.Errorf("not acceptable %q (use application/json or text/plain)", header)
}

func sloAccept(header string) (wantJSON, ok bool) {
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
	return false, false
}

type graphFormat int

const (
	formatJSON graphFormat = iota
	formatBinary
	formatTSV
)

const (
	mediaJSON   = "application/json"
	mediaBinary = "application/octet-stream"
	mediaTSV    = "text/tab-separated-values"
)

type errUnsupportedMedia struct{ ct string }

func (e *errUnsupportedMedia) Error() string { return "unsupported graph media type " + e.ct }

func graphFormatFromAccept(header string) (graphFormat, error) {
	if strings.TrimSpace(header) == "" {
		return formatJSON, nil
	}
	for _, part := range strings.Split(header, ",") {
		mt, _, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		switch mt {
		case mediaJSON, "text/json", "*/*", "application/*":
			return formatJSON, nil
		case mediaBinary:
			return formatBinary, nil
		case mediaTSV, "text/tsv", "text/*":
			return formatTSV, nil
		}
	}
	return formatJSON, &errUnsupportedMedia{ct: header}
}

// negotiateGraph is the server's graph-download use of Negotiate: the
// three codecs' media types first, then their aliases.
func negotiateGraph(header string) (graphFormat, bool) {
	switch Negotiate(header, mediaJSON, mediaBinary, mediaTSV, "text/tsv", "text/json") {
	case mediaJSON, "text/json":
		return formatJSON, true
	case mediaBinary:
		return formatBinary, true
	case mediaTSV, "text/tsv":
		return formatTSV, true
	}
	return formatJSON, false
}

// checkAgainstReferences fails when Negotiate picks differently from any
// of the three reference parsers for header.
func checkAgainstReferences(t *testing.T, header string) {
	t.Helper()
	tree, err := treeFromAccept(header)
	if got := Negotiate(header, "application/json", "text/plain"); (got != "") != (err == nil) || got != "" && (got == "text/plain") != tree {
		t.Errorf("traces: Accept %q: Negotiate = %q, reference tree=%v err=%v", header, got, tree, err)
	}
	wantJSON, ok := sloAccept(header)
	if got := Negotiate(header, "text/html", "application/json"); (got != "") != ok || got != "" && (got == "application/json") != wantJSON {
		t.Errorf("slo: Accept %q: Negotiate = %q, reference json=%v ok=%v", header, got, wantJSON, ok)
	}
	want, werr := graphFormatFromAccept(header)
	if got, gok := negotiateGraph(header); gok != (werr == nil) || gok && got != want {
		t.Errorf("graph: Accept %q: Negotiate = %v/%v, reference %v/%v", header, got, gok, want, werr)
	}
}

func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		accept string
		offers []string
		want   string
	}{
		{"", []string{"text/html", "application/json"}, "text/html"},
		{"  ", []string{"application/json", "text/plain"}, "application/json"},
		{"*/*", []string{"text/html", "application/json"}, "text/html"},
		{"application/*", []string{"text/html", "application/json"}, "application/json"},
		{"text/*", []string{mediaJSON, mediaBinary, mediaTSV, "text/tsv", "text/json"}, mediaTSV},
		{"application/json; charset=utf-8", []string{"text/html", "application/json"}, "application/json"},
		{"application/json, text/html", []string{"text/html", "application/json"}, "application/json"},
		{"image/png, text/plain;q=0.1", []string{"application/json", "text/plain"}, "text/plain"},
		{"image/png", []string{"text/html", "application/json"}, ""},
		{"*/json", []string{"application/json"}, ""},
		{";;, bogus", []string{"text/html"}, ""},
	} {
		if got := Negotiate(tc.accept, tc.offers...); got != tc.want {
			t.Errorf("Negotiate(%q, %q) = %q, want %q", tc.accept, tc.offers, got, tc.want)
		}
		checkAgainstReferences(t, tc.accept)
	}
}

// FuzzNegotiate holds Negotiate to the three parsers it replaced: for
// every Accept header it must pick what each of them picked.
func FuzzNegotiate(f *testing.F) {
	for _, seed := range []string{
		"", "*/*", "text/*", "application/*", "text/html", "text/plain", "application/json",
		"application/json; charset=utf-8", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		"image/png", "text/tsv, application/octet-stream", "TEXT/JSON", "text/json;q=0", ", ,", "*/json",
		"application/octet-stream;", "text/tab-separated-values; charset=\"utf-8\"",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReferences)
}

func TestPage(t *testing.T) {
	p := New("a <title>", "heading & co")
	p.Section("Build")
	p.Row("name", "<script>alert(1)</script>", 42)
	p.Row("trusted", HTML("<b>bold</b>"), Link("/x?a=1&b=<2>", "x"))
	p.Section("After")
	p.Table("col <1>", "col 2")
	p.Row(Code("a<b"), State("bad", "<firing>"))
	p.Para("none & ", HTML("<em>all</em>"))
	p.Links("/metrics", "/debug/traces")
	rr := httptest.NewRecorder()
	p.Write(rr)
	if ct := rr.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	page := rr.Body.String()
	for _, want := range []string{
		"<title>a &lt;title&gt;</title>",
		"<h1>heading &amp; co</h1>\n",
		"<h2>Build</h2>\n<table>\n<tr><td>name</td><td>&lt;script&gt;alert(1)&lt;/script&gt;</td><td>42</td></tr>\n",
		`<tr><td>trusted</td><td><b>bold</b></td><td><a href="/x?a=1&amp;b=&lt;2&gt;">x</a></td></tr>` + "\n</table>\n<h2>After</h2>\n",
		"<table>\n<tr><th>col &lt;1&gt;</th><th>col 2</th></tr>\n",
		`<tr><td><code>a&lt;b</code></td><td><span class="bad">&lt;firing&gt;</span></td></tr>` + "\n</table>\n<p>none &amp; <em>all</em></p>\n",
		`<p><a href="/metrics">/metrics</a> · <a href="/debug/traces">/debug/traces</a></p>` + "\n</body></html>\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(page, "<script>") {
		t.Error("a string cell was written unescaped")
	}
	if n, m := strings.Count(page, "<table>"), strings.Count(page, "</table>"); n != 2 || m != 2 {
		t.Errorf("%d tables opened, %d closed, want 2 and 2", n, m)
	}
}

func TestError(t *testing.T) {
	for _, c := range []struct{ id, want string }{
		{"", `{"error":"no \"x\" here"}` + "\n"},
		{"abc123", `{"error":"no \"x\" here","requestId":"abc123"}` + "\n"},
	} {
		rr := httptest.NewRecorder()
		if c.id != "" {
			rr.Header().Set("X-Request-ID", c.id)
		}
		Error(rr, http.StatusNotFound, fmt.Errorf("no %q here", "x"))
		if rr.Code != http.StatusNotFound || rr.Header().Get("Content-Type") != "application/json" || rr.Body.String() != c.want {
			t.Errorf("X-Request-ID %q: %d %q %q, want 404 application/json %q",
				c.id, rr.Code, rr.Header().Get("Content-Type"), rr.Body.String(), c.want)
		}
	}
}
