package server

// The solve response encoder. A response carries one coverage float per
// graph node, so on a 52,739-node graph encoding/json's reflection walk
// costs more than the cached answer behind it. appendSolveResponse writes
// the same bytes by hand into a pooled buffer; the differential tests and
// FuzzSolveResponseJSON hold it to json.NewEncoder(w).Encode(resp).

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// respBufs pools response encoding buffers across requests.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResp is the largest buffer returned to respBufs, so one huge
// response does not keep its buffer alive for every later request.
const maxPooledResp = 16 << 20

func getRespBuf() *[]byte { return respBufs.Get().(*[]byte) }

func putRespBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledResp {
		*buf = (*buf)[:0]
		respBufs.Put(buf)
	}
}

// writeRawJSON writes an already encoded JSON reply.
func writeRawJSON(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// appendSolveResponse appends the encoding of resp that
// json.NewEncoder(w).Encode(resp) writes, trailing newline included: the
// same field order, strings HTML-escaped, floats in encoding/json's
// format. A non-finite float fails with the *json.UnsupportedValueError
// encoding/json returns.
func appendSolveResponse(dst []byte, resp *solveResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"variant":`...)
	dst = appendJSONString(dst, resp.Variant)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(resp.K), 10)
	dst = append(dst, `,"cover":`...)
	if dst, err = appendJSONFloat(dst, resp.Cover); err != nil {
		return dst, err
	}
	dst = append(dst, `,"reached":`...)
	dst = strconv.AppendBool(dst, resp.Reached)
	dst = append(dst, `,"order":`...)
	if resp.Order == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, label := range resp.Order {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, label)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"gains":`...)
	if dst, err = appendJSONFloats(dst, resp.Gains); err != nil {
		return dst, err
	}
	dst = append(dst, `,"coverage":`...)
	if dst, err = appendJSONFloats(dst, resp.Coverage); err != nil {
		return dst, err
	}
	if resp.Resources != nil {
		// Present only when this request ran the solver, so reflection
		// here is noise next to the solve.
		res, err := json.Marshal(resp.Resources)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"resources":`...)
		dst = append(dst, res...)
	}
	return append(dst, '}', '\n'), nil
}

// appendJSONFloats appends fs as a JSON array, or null for a nil slice.
func appendJSONFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendJSONFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' representation unless 0 < |f| < 1e-6 or |f| >= 1e21, which
// use 'e' with a one-digit negative exponent kept unpadded (e-7, not
// e-07). Exact 0 and 1, most of a coverage report, skip strconv.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	switch {
	case f == 1:
		return append(dst, '1'), nil
	case f == 0 && !math.Signbit(f):
		return append(dst, '0'), nil
	case math.IsInf(f, 0) || math.IsNaN(f):
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default): <, > and & become \u003c, \u003e
// and \u0026; control bytes \b, \f, \n, \r, \t or \u00XX; each invalid
// UTF-8 byte \ufffd; and U+2028 and U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
