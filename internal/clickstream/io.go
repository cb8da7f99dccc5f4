package clickstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Two streaming codecs are provided:
//
//   - JSONL: one JSON-encoded Session per line; self-describing, good for
//     interchange with real platform exports.
//   - TSV:   "id <TAB> purchase <TAB> click1,click2,..." — compact, fast,
//     diffable; purchase and clicks columns may be empty.
//
// Both readers implement Source and return ErrEOF at end of stream.

// JSONLReader streams sessions from JSON-lines input.
type JSONLReader struct {
	sc   *bufio.Scanner
	line int
	cur  Session
}

// NewJSONLReader wraps r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &JSONLReader{sc: sc}
}

// Next implements Source.
func (jr *JSONLReader) Next() (*Session, error) {
	for jr.sc.Scan() {
		jr.line++
		text := strings.TrimSpace(jr.sc.Text())
		if text == "" {
			continue
		}
		jr.cur = Session{}
		if err := json.Unmarshal([]byte(text), &jr.cur); err != nil {
			return nil, lineError(jr.sc, fmt.Errorf("clickstream: jsonl line %d: %w", jr.line, err))
		}
		if err := jr.cur.Validate(); err != nil {
			return nil, lineError(jr.sc, fmt.Errorf("clickstream: jsonl line %d: %w", jr.line, err))
		}
		return &jr.cur, nil
	}
	if err := jr.sc.Err(); err != nil {
		return nil, err
	}
	return nil, ErrEOF
}

// lineError is err, the fault found in the scanner's current line, unless
// the scanner stopped on a read error: it hands over the partial line it
// holds then, and the fault is the read's.
func lineError(sc *bufio.Scanner, err error) error {
	if readErr := sc.Err(); readErr != nil {
		return readErr
	}
	return err
}

// JSONLWriter streams sessions as JSON lines.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one session.
func (jw *JSONLWriter) Write(s *Session) error { return jw.enc.Encode(s) }

// Flush flushes buffered output; call once after the last Write.
func (jw *JSONLWriter) Flush() error { return jw.bw.Flush() }

// TSVReader streams sessions from the TSV format.
type TSVReader struct {
	sc   *bufio.Scanner
	line int
	cur  Session
}

// NewTSVReader wraps r.
func NewTSVReader(r io.Reader) *TSVReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &TSVReader{sc: sc}
}

// Next implements Source.
func (tr *TSVReader) Next() (*Session, error) {
	for tr.sc.Scan() {
		tr.line++
		text := tr.sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 3 {
			return nil, lineError(tr.sc, fmt.Errorf("clickstream: tsv line %d: want 3 fields, got %d", tr.line, len(fields)))
		}
		if strings.Contains(fields[1], ",") {
			// Commas delimit the click list; a purchase label containing
			// one could never be re-serialized, so reject it up front.
			return nil, lineError(tr.sc, fmt.Errorf("clickstream: tsv line %d: purchase label contains a comma", tr.line))
		}
		tr.cur = Session{ID: fields[0], Purchase: fields[1]}
		if fields[2] == "" {
			tr.cur.Clicks = nil
		} else {
			tr.cur.Clicks = strings.Split(fields[2], ",")
		}
		if err := tr.cur.Validate(); err != nil {
			return nil, lineError(tr.sc, fmt.Errorf("clickstream: tsv line %d: %w", tr.line, err))
		}
		return &tr.cur, nil
	}
	if err := tr.sc.Err(); err != nil {
		return nil, err
	}
	return nil, ErrEOF
}

// TSVWriter streams sessions in the TSV format.
type TSVWriter struct {
	bw *bufio.Writer
}

// NewTSVWriter wraps w.
func NewTSVWriter(w io.Writer) *TSVWriter {
	return &TSVWriter{bw: bufio.NewWriter(w)}
}

// Write appends one session. Labels must not contain tabs or commas.
func (tw *TSVWriter) Write(s *Session) error {
	for _, c := range s.Clicks {
		if strings.ContainsAny(c, "\t,") {
			return fmt.Errorf("clickstream: label %q not representable in tsv", c)
		}
	}
	if strings.ContainsAny(s.Purchase, "\t,") || strings.Contains(s.ID, "\t") {
		return fmt.Errorf("clickstream: session %q not representable in tsv", s.ID)
	}
	_, err := fmt.Fprintf(tw.bw, "%s\t%s\t%s\n", s.ID, s.Purchase, strings.Join(s.Clicks, ","))
	return err
}

// Flush flushes buffered output; call once after the last Write.
func (tw *TSVWriter) Flush() error { return tw.bw.Flush() }

// ReadAll drains a source into a Store.
func ReadAll(src Source) (*Store, error) {
	st := NewStore(nil)
	for {
		s, err := src.Next()
		if err != nil {
			if err == ErrEOF {
				return st, nil
			}
			return nil, err
		}
		cp := *s
		cp.Clicks = append([]string(nil), s.Clicks...)
		st.Append(cp)
	}
}

// WriteAll writes every session of the store with the given writer function.
func WriteAll(st *Store, write func(*Session) error) error {
	for i := range st.sessions {
		if err := write(&st.sessions[i]); err != nil {
			return fmt.Errorf("clickstream: writing session %d: %w", i, err)
		}
	}
	return nil
}
