package profilez

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"prefcover/internal/debugpage"
	"prefcover/internal/version"
)

// maxCaptureSeconds caps on-demand CPU windows so a typo'd request can't
// pin the (process-exclusive) CPU profiler for an hour.
const maxCaptureSeconds = 120

// indexPayload is the JSON shape of GET /debug/profilez?format=json.
type indexPayload struct {
	GitSHA        string  `json:"gitSHA"`
	GoVersion     string  `json:"goVersion"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Files         int     `json:"files"`
	Bytes         int64   `json:"bytes"`
	MaxFiles      int     `json:"maxFiles"`
	MaxBytes      int64   `json:"maxBytes"`
	Captures      []Entry `json:"captures"`
}

// Handler serves the /debug/profilez index:
//
//	GET  /debug/profilez                  HTML index, or JSON via ?format=json
//	                                      or Accept (406 for neither)
//	GET  /debug/profilez?download=<id>    one retained capture, gzipped pprof
//	POST /debug/profilez?capture=<kind>[&seconds=N]
//	                                      on-demand capture; blocks for the
//	                                      window on cpu, returns the Entry JSON
func (c *Capturer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			if id := r.URL.Query().Get("download"); id != "" {
				c.serveDownload(w, r, id)
				return
			}
			c.serveIndex(w, r)
		case http.MethodPost:
			c.serveCapture(w, r)
		default:
			w.Header().Set("Allow", "GET, POST")
			debugpage.Error(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		}
	})
}

func (c *Capturer) serveDownload(w http.ResponseWriter, r *http.Request, id string) {
	rc, e, err := c.Open(id)
	if err != nil {
		debugpage.Error(w, http.StatusNotFound, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+e.ID+`"`)
	w.Header().Set("Content-Length", strconv.FormatInt(e.Bytes, 10))
	io.Copy(w, rc)
}

func (c *Capturer) serveCapture(w http.ResponseWriter, r *http.Request) {
	kind := Kind(r.URL.Query().Get("capture"))
	if kind == "" {
		debugpage.Error(w, http.StatusBadRequest, errors.New("missing ?capture=<kind>"))
		return
	}
	if !ValidKind(kind) {
		debugpage.Error(w, http.StatusBadRequest, fmt.Errorf("unknown profile kind %q", kind))
		return
	}
	var seconds float64
	if s := r.URL.Query().Get("seconds"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v > maxCaptureSeconds {
			debugpage.Error(w, http.StatusBadRequest, fmt.Errorf("seconds must be in (0, %d]", maxCaptureSeconds))
			return
		}
		seconds = v
	}
	e, err := c.Capture(r.Context(), kind, "manual", seconds)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrCPUBusy) {
			status = http.StatusConflict
		}
		debugpage.Error(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e)
}

func (c *Capturer) indexPayload() indexPayload {
	files, bytes := c.Stats()
	return indexPayload{
		GitSHA:        version.Get().Revision,
		GoVersion:     runtime.Version(),
		UptimeSeconds: c.Uptime().Seconds(),
		Files:         files,
		Bytes:         bytes,
		MaxFiles:      c.opts.MaxFiles,
		MaxBytes:      c.opts.MaxBytes,
		Captures:      c.List(),
	}
}

func (c *Capturer) serveIndex(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	offer := debugpage.Negotiate(accept, "text/html", "application/json")
	if r.URL.Query().Get("format") == "json" {
		offer = "application/json"
	}
	ix := c.indexPayload()
	switch offer {
	case "application/json":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ix)
		return
	case "":
		debugpage.Error(w, http.StatusNotAcceptable, fmt.Errorf("not acceptable %q (use text/html or application/json)", accept))
		return
	}
	p := debugpage.New("prefcoverd profilez", "/debug/profilez")
	p.Para("git ", debugpage.Code(ix.GitSHA), fmt.Sprintf(" · %s · up %s · ring %d/%d files, %s of %s", ix.GoVersion,
		c.Uptime().Round(time.Second), ix.Files, ix.MaxFiles, fmtBytes(ix.Bytes), fmtBytes(ix.MaxBytes)))
	capture := []any{"On-demand capture: "}
	for _, k := range Kinds() {
		capture = append(capture, debugpage.HTML(`<form method="POST" action="?capture=`+k+`"><button>`+k+"</button></form> "))
	}
	p.Para(append(capture, "(cpu blocks for its sampling window; add ", debugpage.Code("&seconds=N"), ")")...)
	p.Table("time (UTC)", "kind", "trigger", "window", "size", "")
	for _, e := range ix.Captures {
		window := "–"
		if e.Seconds > 0 {
			window = strconv.FormatFloat(e.Seconds, 'f', -1, 64) + "s"
		}
		p.Row(e.Time.UTC().Format("2006-01-02 15:04:05Z"), e.Kind, e.Trigger, window, fmtBytes(e.Bytes),
			debugpage.Link("?download="+e.ID, "download"))
	}
	if len(ix.Captures) == 0 {
		p.Row(debugpage.HTML("<em>no captures yet</em>"))
	}
	p.Para("Profiles are gzipped pprof protobufs: ", debugpage.Code("go tool pprof <file>"), ". CPU samples carry ",
		debugpage.Code("graph/strategy/endpoint/k_bucket/job"), " labels — filter with ", debugpage.Code("-tagfocus graph=..."),
		". JSON index at ", debugpage.Code("?format=json"), ".")
	p.Write(w)
}
