// Package debugpage is what the operator endpoints share: Negotiate picks
// a representation from an Accept header, Page writes the one HTML layout
// every debug page uses, escaping whatever is not typed HTML, and Error
// writes the one JSON error envelope every endpoint answers failures with.
// It imports only the standard library.
package debugpage

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"mime"
	"net/http"
	"strings"
)

// Negotiate returns the offer (a media type) that an Accept header picks.
// offers[0] is the default: an empty header and */* pick it, and type/*
// picks the first offer of that type; any other range must name an offer.
// Ranges are tried left to right and q-values are ignored. "" means
// nothing matched, which the caller answers with 406.
func Negotiate(accept string, offers ...string) string {
	if strings.TrimSpace(accept) == "" {
		return offers[0]
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		for _, o := range offers {
			if mt == "*/*" || mt == o || strings.HasSuffix(mt, "/*") && strings.HasPrefix(o, mt[:len(mt)-1]) {
				return o
			}
		}
	}
	return ""
}

// HTML is markup a page writes as is. Every other cell, heading and
// paragraph part is formatted with %v and escaped.
type HTML string

// Link is an anchor to href that shows text.
func Link(href, text string) HTML {
	return HTML(`<a href="` + html.EscapeString(href) + `">` + html.EscapeString(text) + "</a>")
}

// Code shows s as code.
func Code(s string) HTML { return HTML("<code>" + html.EscapeString(s) + "</code>") }

// State shows s in the colour of class: ok, bad, drain or idle.
func State(class, s string) HTML {
	return HTML(`<span class="` + class + `">` + html.EscapeString(s) + "</span>")
}

// style is the stylesheet of every page.
const style = `body{font-family:sans-serif;margin:2em;color:#222}
table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #ccc;padding:4px 10px;text-align:left;font-size:14px}
th{background:#f3f3f3}
h1{font-size:22px}h2{font-size:17px;margin-top:1.6em}
code{background:#f5f5f5;padding:0 0.2em}
form{display:inline}
.ok{color:#070}.bad{color:#b00}.drain{color:#a60}.idle{color:#888}
`

// Page is one HTML document, written in call order. Row opens a table
// when none is open, and the table stays open until the next Section,
// Para, Table or Write.
type Page struct {
	b       strings.Builder
	inTable bool
}

// New starts a page with its title and h1 heading.
func New(title, heading string) *Page {
	p := &Page{}
	fmt.Fprintf(&p.b, "<!DOCTYPE html>\n<html><head><title>%s</title><style>\n%s</style></head><body>\n<h1>%s</h1>\n",
		html.EscapeString(title), style, html.EscapeString(heading))
	return p
}

func (p *Page) endTable() {
	if p.inTable {
		p.b.WriteString("</table>\n")
		p.inTable = false
	}
}

// Section starts an h2 section.
func (p *Page) Section(heading string) {
	p.endTable()
	p.b.WriteString("<h2>" + html.EscapeString(heading) + "</h2>\n")
}

// Para writes one paragraph of parts.
func (p *Page) Para(parts ...any) {
	p.endTable()
	p.b.WriteString("<p>")
	for _, part := range parts {
		p.b.WriteString(cell(part))
	}
	p.b.WriteString("</p>\n")
}

// Links writes a paragraph of links, each showing its path.
func (p *Page) Links(paths ...string) {
	var parts []any
	for _, path := range paths {
		parts = append(parts, Link(path, path), " · ")
	}
	p.Para(parts[:len(parts)-1]...)
}

// Table starts a table with a header row of column names.
func (p *Page) Table(header ...string) {
	p.endTable()
	p.b.WriteString("<table>\n<tr>")
	for _, h := range header {
		p.b.WriteString("<th>" + html.EscapeString(h) + "</th>")
	}
	p.b.WriteString("</tr>\n")
	p.inTable = true
}

// Row writes one table row.
func (p *Page) Row(cells ...any) {
	if !p.inTable {
		p.b.WriteString("<table>\n")
		p.inTable = true
	}
	p.b.WriteString("<tr>")
	for _, c := range cells {
		p.b.WriteString("<td>" + cell(c) + "</td>")
	}
	p.b.WriteString("</tr>\n")
}

// Write ends the document and sends it as text/html.
func (p *Page) Write(w http.ResponseWriter) {
	p.endTable()
	p.b.WriteString("</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, p.b.String())
}

func cell(v any) string {
	if h, ok := v.(HTML); ok {
		return string(h)
	}
	return html.EscapeString(fmt.Sprint(v))
}

// Error answers status with the JSON error envelope {"error", "requestId"}.
// The request ID is the X-Request-ID the response already carries (the
// node's middleware and the gateway set it before any handler runs); it is
// left out when there is none.
func Error(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId,omitempty"`
	}{err.Error(), w.Header().Get("X-Request-ID")})
}
