package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"prefcover/internal/profilez"
)

// checkSolveJSON demands appendSolveResponse's bytes equal
// json.NewEncoder(&buf).Encode(resp), and that both fail alike on a value
// JSON cannot carry.
func checkSolveJSON(t testing.TB, resp *solveResponse) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(resp)
	prefix := []byte("prefix")
	got, gerr := appendSolveResponse(prefix, resp)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("encoding/json error %v, encoder error %v for %+v", werr, gerr, resp)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("encoder error %q, encoding/json %q", gerr, werr)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("encoder clobbered dst: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoder bytes differ from encoding/json:\n got %q\nwant %q", got, want.Bytes())
	}
}

func TestSolveResponseJSONMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 5e-324, -5e-324, 9.99e-7, 1e-6, 1e-7, 1e20, 1e21, -1e21,
		0.1, 1, -1, 0.14954458641954838, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	labels := []string{
		"", "sku-1", "<script>", "a>b", "fish & chips", `say "hi"`, `back\slash`,
		"\x00\x01\x1f", "\b\f\n\r\t", "del\x7f", "\u2028line\u2029para",
		"bad\xffutf8", "trunc\xc3", "\xed\xa0\x80", "h\u00e9llo \u65e5\u672c \U0001F600",
	}
	usage := &profilez.Usage{WallNanos: 1234567, CPUNanos: -1, AllocBytes: 1 << 40, AllocObjects: 3, GCPauseNanos: 0}
	cases := map[string]solveResponse{
		"zero value":   {},
		"empty slices": {Variant: "independent", Order: []string{}, Gains: []float64{}, Coverage: []float64{}},
		"nil order":    {Variant: "normalized", K: 2, Gains: []float64{0.5, 0.25}, Coverage: floats},
		"labels": {Variant: "independent", K: len(labels), Cover: 0.75, Reached: true,
			Order: labels, Gains: floats[:len(labels)], Coverage: floats},
		"floats as cover": {Variant: "<&>", K: -3, Cover: 1e-7, Coverage: []float64{negZero}},
		"resources": {Variant: "independent", K: 1, Cover: 0.5, Reached: true,
			Order: []string{"a"}, Gains: []float64{0.5}, Coverage: []float64{1, 0}, Resources: usage},
		"zero resources": {Resources: &profilez.Usage{}},
		"NaN cover":      {Cover: math.NaN()},
		"Inf gain":       {Gains: []float64{0.5, math.Inf(1)}},
		"-Inf coverage":  {Coverage: []float64{0, math.Inf(-1)}},
	}
	for _, f := range floats {
		cases["cover "+string(appendFloatForName(f))] = solveResponse{Cover: f, Gains: []float64{f}, Coverage: []float64{f, f}}
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) { checkSolveJSON(t, &resp) })
	}
}

// appendFloatForName renders f for a subtest name.
func appendFloatForName(f float64) []byte {
	b, _ := appendJSONFloat(nil, f)
	return b
}

// FuzzSolveResponseJSON drives the encoder with arbitrary labels, floats
// and slice shapes; shape's bits make Order, Gains and Coverage nil and
// attach Resources.
func FuzzSolveResponseJSON(f *testing.F) {
	f.Add("independent", "sku-1", "<&>", 3, 0.5, true, 0.25, 1.0, 0.0, uint8(0), int64(7))
	f.Add("", "\u2028\xff", "\x00\"\\", -1, 1e21, false, 9.99e-7, 5e-324, math.Copysign(0, -1), uint8(15), int64(-1))
	f.Add("n", "", "\xc3", 0, math.NaN(), false, 1e-6, 1e20, 0.1, uint8(8), int64(0))
	f.Fuzz(func(t *testing.T, variant, label1, label2 string, k int, cover float64, reached bool,
		gain, cov1, cov2 float64, shape uint8, wall int64) {
		resp := solveResponse{
			Variant:  variant,
			K:        k,
			Cover:    cover,
			Reached:  reached,
			Order:    []string{label1, label2},
			Gains:    []float64{gain},
			Coverage: []float64{cov1, cov2, gain},
		}
		if shape&1 != 0 {
			resp.Order = nil
		}
		if shape&2 != 0 {
			resp.Gains = nil
		}
		if shape&4 != 0 {
			resp.Coverage = nil
		}
		if shape&8 != 0 {
			resp.Resources = &profilez.Usage{WallNanos: wall, CPUNanos: int64(k)}
		}
		checkSolveJSON(t, &resp)
	})
}

// TestWriteSolveNonFinite checks that a response JSON cannot carry becomes
// the 500 error envelope rather than an empty or invalid 200 body, both
// from writeSolve and from the reference path's error mapping.
func TestWriteSolveNonFinite(t *testing.T) {
	s := New(Limits{}, nil)
	defer s.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	_, encErr := appendSolveResponse(nil, &solveResponse{Coverage: []float64{0.5, math.NaN()}})
	for name, write := range map[string]func(http.ResponseWriter){
		"writeSolve": func(w http.ResponseWriter) {
			s.writeSolve(w, req, &solveResponse{Variant: "independent", Coverage: []float64{0.5, math.NaN()}})
		},
		"writeWorkError": func(w http.ResponseWriter) { s.writeWorkError(w, req, "/v1/solve", encErr) },
	} {
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, want 500", name, rec.Code)
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error != "json: unsupported value: NaN" {
			t.Fatalf("%s: body = %q (%v)", name, rec.Body.Bytes(), err)
		}
	}
}
