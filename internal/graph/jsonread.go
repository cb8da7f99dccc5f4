package graph

// The JSON graph reader. A graph upload is tens of megabytes of JSON, and
// a reflection decode into per-element structs costs several times what
// the bytes do. jsonDecoder reads the document through a fixed buffer into
// flat slices instead. It accepts and rejects exactly the documents
// json.NewDecoder(r).Decode(&jsonGraph{}) does and yields the same values;
// FuzzReadJSON holds it to that reader, which lives on in a test file.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

const (
	// jsonBufSize is the read buffer: refills are rare next to the parse,
	// and the buffer costs nothing next to the graph it reads.
	jsonBufSize = 64 << 10
	// maxJSONDepth is encoding/json's nesting limit.
	maxJSONDepth = 10000
)

// jsonDecoder is one document's parse state. Node i is (weights[i],
// labels[i]) and edge i is edges[i]; nodeLen and edgeLen are the array
// lengths the document has set. Elements past a length are kept, not
// cleared: encoding/json decodes a repeated "nodes" or "edges" key into
// the earlier slice, so an element that a later array reaches again keeps
// the fields it omits, and only [] or null empties the slice.
type jsonDecoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	base     int64 // input offset of buf[0]
	rerr     error // the read error, reported once buf is drained
	depth    int
	saved    error  // the first type error, reported if the syntax is valid
	scratch  []byte // the current key, string or spilled number literal

	weights []float64
	labels  []string
	edges   []Edge
	nodeLen int
	edgeLen int
}

// ReadJSON parses a document produced by WriteJSON. Keys match
// case-insensitively, unknown fields are skipped, null leaves what it
// replaces untouched, and bytes after the document are not read.
func ReadJSON(r io.Reader, opts BuildOptions) (*Graph, error) {
	d := jsonDecoder{r: r, buf: make([]byte, jsonBufSize)}
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("graph: decoding json: %w", err)
	}
	weights, labels, edges := d.weights[:d.nodeLen], d.labels[:d.nodeLen], d.edges[:d.edgeLen]
	b := NewBuilder(len(weights), 0)
	labeled := len(labels) > 0 && labels[0] != ""
	for i, w := range weights {
		if labeled {
			if labels[i] == "" {
				return nil, fmt.Errorf("graph: json node %d missing label in labeled graph", i)
			}
			b.AddLabeledNode(labels[i], w)
		} else {
			b.AddNode(w)
		}
	}
	for i, e := range edges {
		if e.Src < 0 || int(e.Src) >= len(weights) || e.Dst < 0 || int(e.Dst) >= len(weights) {
			return nil, fmt.Errorf("graph: json edge %d references unknown node", i)
		}
	}
	b.edges = edges
	return b.Build(opts)
}

// document parses the top-level value. Syntax and read errors end the
// parse; a type error is kept and returned once the whole value has been
// read, as encoding/json checks the syntax before it decodes.
func (d *jsonDecoder) document() error {
	c, ok := d.space()
	if !ok {
		return d.rerr // io.EOF when the input holds only whitespace
	}
	if c != '{' {
		if err := d.skip(); err != nil {
			return err
		}
		if c == 'n' {
			return nil // null decodes to the empty document
		}
		return fmt.Errorf("json: cannot unmarshal %s into a graph document", valueKind(c))
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil {
			return err
		}
		if !more {
			return d.saved
		}
		switch fieldIndex(key, "nodes", "edges") {
		case 0:
			err = d.nodeArray()
		case 1:
			err = d.edgeArray()
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// nodeArray decodes the "nodes" value.
func (d *jsonDecoder) nodeArray() error {
	n, err := d.array("nodes", func(i int) error {
		if i == len(d.weights) {
			d.weights, d.labels = grow(d.weights), grow(d.labels)
		}
		return d.node(i)
	})
	if n == 0 {
		d.weights, d.labels = d.weights[:0], d.labels[:0]
	}
	if n >= 0 {
		d.nodeLen = n
	}
	return err
}

// edgeArray decodes the "edges" value.
func (d *jsonDecoder) edgeArray() error {
	n, err := d.array("edges", func(i int) error {
		if i == len(d.edges) {
			d.edges = grow(d.edges)
		}
		return d.edge(i)
	})
	if n == 0 {
		d.edges = d.edges[:0]
	}
	if n >= 0 {
		d.edgeLen = n
	}
	return err
}

// grow appends a zero element to s, doubling its capacity when full: the
// runtime grows large slices by a quarter, which would copy a
// 250,000-edge array about five times over.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	var zero T
	return append(s, zero)
}

// array decodes a slice-typed field: elem(i) decodes element i. It
// returns the slice's new length, 0 for null, or -1 when the value is not
// an array and leaves the slice as it was.
func (d *jsonDecoder) array(name string, elem func(i int) error) (int, error) {
	c, ok := d.space()
	if !ok {
		return -1, d.fail()
	}
	switch c {
	case 'n':
		return 0, d.literal("null")
	case '[':
	default:
		d.mismatch(c, name+" array")
		return -1, d.skip()
	}
	if err := d.open(); err != nil {
		return -1, err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.element(first)
		if err != nil {
			return -1, err
		}
		if !more {
			return i, nil
		}
		if err := elem(i); err != nil {
			return -1, err
		}
		i++
	}
}

// node decodes nodes[i] into (weights[i], labels[i]).
func (d *jsonDecoder) node(i int) error {
	if ok, err := d.object("node"); !ok || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch fieldIndex(key, "label", "weight") {
		case 0:
			err = d.stringValue(&d.labels[i])
		case 1:
			err = d.floatValue(&d.weights[i])
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// edge decodes edges[i].
func (d *jsonDecoder) edge(i int) error {
	if ok, err := d.object("edge"); !ok || err != nil {
		return err
	}
	e := &d.edges[i]
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		switch fieldIndex(key, "src", "dst", "weight") {
		case 0:
			err = d.int32Value(&e.Src)
		case 1:
			err = d.int32Value(&e.Dst)
		case 2:
			err = d.floatValue(&e.W)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// object opens a struct-typed value and reports whether members follow.
// null and values of other kinds are consumed whole, leaving the struct
// untouched; the latter are type errors.
func (d *jsonDecoder) object(name string) (bool, error) {
	c, ok := d.space()
	if !ok {
		return false, d.fail()
	}
	switch c {
	case '{':
		return true, d.open()
	case 'n':
		return false, d.literal("null")
	}
	d.mismatch(c, name)
	return false, d.skip()
}

// stringValue decodes a string field into *p.
func (d *jsonDecoder) stringValue(p *string) error {
	c, ok := d.space()
	if !ok {
		return d.fail()
	}
	switch c {
	case '"':
		d.pos++
		s := d.plainString()
		if s == nil {
			var err error
			if s, err = d.str(d.scratch[:0]); err != nil {
				return err
			}
			d.scratch = s
		}
		*p = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	d.mismatch(c, "string")
	return d.skip()
}

// floatValue decodes a float64 field into *p with strconv.ParseFloat on
// the literal's bytes; a literal out of float64 range is a type error.
func (d *jsonDecoder) floatValue(p *float64) error {
	c, ok := d.space()
	if !ok {
		return d.fail()
	}
	switch {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.save(fmt.Errorf("json: cannot unmarshal number %s into float64", lit))
			return nil
		}
		*p = f
		return nil
	case c == 'n':
		return d.literal("null")
	}
	d.mismatch(c, "float64")
	return d.skip()
}

// int32Value decodes an int32 field into *p. The literal must be an
// integer (no fraction or exponent) within int32 range.
func (d *jsonDecoder) int32Value(p *int32) error {
	c, ok := d.space()
	if !ok {
		return d.fail()
	}
	switch {
	case '1' <= c && c <= '9':
		// Fast path: a positive integer of at most ten digits, ended in
		// the buffer.
		b := d.buf[d.pos:d.end]
		var n int64
		i := 0
		for ; i < len(b) && i < 10 && isDigit(b[i]); i++ {
			n = n*10 + int64(b[i]-'0')
		}
		if i < len(b) && !numberBytes[b[i]] && n <= math.MaxInt32 {
			d.pos += i
			*p = int32(n)
			return nil
		}
		fallthrough
	case c == '-' || c == '0':
		lit, err := d.number()
		if err != nil {
			return err
		}
		v, ok := parseInt32(lit)
		if !ok {
			d.save(fmt.Errorf("json: cannot unmarshal number %s into int32", lit))
			return nil
		}
		*p = v
		return nil
	case c == 'n':
		return d.literal("null")
	}
	d.mismatch(c, "int32")
	return d.skip()
}

// fieldIndex returns the index in names of the field key names, matched
// as encoding/json matches them: exactly, else under Unicode case
// folding. It returns -1 for an unknown field.
func fieldIndex(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// parseInt32 parses a valid JSON number literal as an int32: the digits
// of an optional '-' and an integer, within range.
func parseInt32(lit []byte) (int32, bool) {
	mag := lit
	if mag[0] == '-' {
		mag = mag[1:]
	}
	var n int64
	for _, c := range mag {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int64(c-'0'); n > -math.MinInt32 {
			return 0, false
		}
	}
	if lit[0] == '-' {
		n = -n
	}
	if n > math.MaxInt32 {
		return 0, false
	}
	return int32(n), true
}

// skip consumes one value of any kind, checking its syntax.
func (d *jsonDecoder) skip() error {
	c, ok := d.space()
	if !ok {
		return d.fail()
	}
	switch {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := d.member(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.element(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		d.pos++
		s, err := d.str(d.scratch[:0])
		d.scratch = s
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax(c, "looking for beginning of value")
}

// open consumes the '{' or '[' at the read position.
func (d *jsonDecoder) open() error {
	d.pos++
	if d.depth++; d.depth > maxJSONDepth {
		return d.syntax(d.buf[d.pos-1], "exceeding the maximum nesting depth")
	}
	return nil
}

// member moves to the next member of the open object and returns its
// unescaped key, which stays valid until the next string or number is
// read; more is false once the object closes. first is true for the call
// right after '{'.
func (d *jsonDecoder) member(first bool) (key []byte, more bool, err error) {
	c, ok := d.space()
	if !ok {
		return nil, false, d.fail()
	}
	switch {
	case c == '}':
		d.pos++
		d.depth--
		return nil, false, nil
	case !first && c != ',':
		return nil, false, d.syntax(c, "after object key:value pair")
	case !first:
		d.pos++
		if c, ok = d.space(); !ok {
			return nil, false, d.fail()
		}
	}
	if c != '"' {
		return nil, false, d.syntax(c, "looking for beginning of object key string")
	}
	d.pos++
	if key = d.plainString(); key != nil {
		if d.pos < d.end && d.buf[d.pos] == ':' {
			d.pos++
			return key, true, nil
		}
		// Reading on to the colon may refill buf under the key.
		d.scratch = append(d.scratch[:0], key...)
		key = d.scratch
	} else if key, err = d.str(d.scratch[:0]); err != nil {
		return nil, false, err
	} else {
		d.scratch = key
	}
	if c, ok = d.space(); !ok {
		return nil, false, d.fail()
	}
	if c != ':' {
		return nil, false, d.syntax(c, "after object key")
	}
	d.pos++
	return key, true, nil
}

// element moves to the next element of the open array; more is false once
// the array closes. first is true for the call right after '['.
func (d *jsonDecoder) element(first bool) (more bool, err error) {
	c, ok := d.space()
	if !ok {
		return false, d.fail()
	}
	switch {
	case c == ']':
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c != ',':
		return false, d.syntax(c, "after array element")
	}
	d.pos++
	return true, nil
}

// literal consumes the literal word (true, false or null).
func (d *jsonDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == d.end && !d.more() {
			return d.fail()
		}
		if c := d.buf[d.pos]; c != word[i] {
			return d.syntax(c, "in literal "+word)
		}
		d.pos++
	}
	return nil
}

// number consumes a number literal and returns its bytes, valid until the
// next read.
func (d *jsonDecoder) number() ([]byte, error) {
	b := d.buf[d.pos:d.end]
	n, ok := scanNumber(b)
	if n == len(b) {
		return d.splitNumber()
	}
	// The literal ends at the first byte the grammar does not take, which
	// must not be one a number can hold either.
	if !ok || numberBytes[b[n]] {
		return nil, d.badNumber(b[:n+1])
	}
	d.pos += n
	return b[:n], nil
}

// splitNumber consumes a number literal that may run past the buffered
// bytes, gathering it in scratch across refills.
func (d *jsonDecoder) splitNumber() ([]byte, error) {
	d.scratch = d.scratch[:0]
	for {
		i, b := d.pos, d.buf[:d.end]
		for i < len(b) && numberBytes[b[i]] {
			i++
		}
		d.scratch = append(d.scratch, b[d.pos:i]...)
		d.pos = i
		if i < len(b) || !d.more() {
			break
		}
	}
	if n, ok := scanNumber(d.scratch); !ok || n < len(d.scratch) {
		return nil, d.badNumber(d.scratch)
	}
	return d.scratch, nil
}

// numberBytes are the bytes a number literal can hold. A literal runs to
// the first byte outside them, and the grammar then checks it: a byte
// within them that the grammar rejects is a syntax error either way.
var numberBytes = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'-': true, '+': true, '.': true, 'e': true, 'E': true,
}

func (d *jsonDecoder) badNumber(lit []byte) error {
	return fmt.Errorf("json: invalid number literal %q near offset %d", lit, d.offset())
}

// scanNumber matches JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, against the start of b.
// It returns where the match stopped, at the first byte the grammar does
// not take or at len(b), and whether the bytes before it form a number.
func scanNumber(b []byte) (n int, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return i, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return k, false
		}
		i = k
	}
	return i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(s []byte, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// str consumes the rest of a string literal whose opening quote has been
// read, appending its unescaped content to dst as encoding/json unquotes
// it: invalid UTF-8 becomes U+FFFD byte by byte, and a \u escape of a
// surrogate becomes U+FFFD unless a \u escape completing the pair follows.
func (d *jsonDecoder) str(dst []byte) ([]byte, error) {
	for {
		i := d.pos
		for i < d.end {
			if c := d.buf[i]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
				break
			}
			i++
		}
		dst = append(dst, d.buf[d.pos:i]...)
		d.pos = i
		if d.pos == d.end {
			if !d.more() {
				return dst, d.fail()
			}
			continue
		}
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			return dst, nil
		case c == '\\':
			var err error
			if dst, err = d.escape(dst); err != nil {
				return dst, err
			}
		case c < ' ':
			return dst, d.syntax(c, "in string literal")
		default:
			d.ensure(utf8.UTFMax)
			r, size := utf8.DecodeRune(d.buf[d.pos:d.end])
			dst = utf8.AppendRune(dst, r)
			d.pos += size
		}
	}
}

// plainString consumes a string literal that ends in the buffer and needs
// no unescaping, returning its content in place; it returns nil, having
// consumed nothing, for any other.
func (d *jsonDecoder) plainString() []byte {
	b := d.buf[d.pos:d.end]
	for i, c := range b {
		if c == '"' {
			d.pos += i + 1
			return b[:i:i]
		}
		if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			return nil
		}
	}
	return nil
}

// escape consumes the escape sequence at the read position.
func (d *jsonDecoder) escape(dst []byte) ([]byte, error) {
	n := d.ensure(6)
	b := d.buf[d.pos : d.pos+n]
	if len(b) < 2 {
		d.pos = d.end
		return dst, d.fail()
	}
	switch c := b[1]; c {
	case '"', '\\', '/':
		dst = append(dst, c)
	case 'b':
		dst = append(dst, '\b')
	case 'f':
		dst = append(dst, '\f')
	case 'n':
		dst = append(dst, '\n')
	case 'r':
		dst = append(dst, '\r')
	case 't':
		dst = append(dst, '\t')
	case 'u':
		for i := 2; i < 6; i++ {
			if i == len(b) {
				d.pos = d.end
				return dst, d.fail()
			}
			if hexVal(b[i]) < 0 {
				d.pos += i
				return dst, d.syntax(b[i], "in \\u hexadecimal character escape")
			}
		}
		r := hex4(b)
		d.pos += 6
		if utf16.IsSurrogate(r) {
			n := d.ensure(6)
			if dec := utf16.DecodeRune(r, hex4(d.buf[d.pos:d.pos+n])); dec != unicode.ReplacementChar {
				r = dec
				d.pos += 6
			} else {
				r = unicode.ReplacementChar
			}
		}
		return utf8.AppendRune(dst, r), nil
	default:
		d.pos++
		return dst, d.syntax(c, "in string escape code")
	}
	d.pos += 2
	return dst, nil
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// space skips whitespace and returns the next byte without consuming it;
// ok is false at the end of input or on a read error.
func (d *jsonDecoder) space() (c byte, ok bool) {
	if d.pos < d.end && d.buf[d.pos] > ' ' {
		return d.buf[d.pos], true
	}
	return d.spaceSlow()
}

func (d *jsonDecoder) spaceSlow() (c byte, ok bool) {
	for {
		for d.pos < d.end {
			switch c = d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, true
			}
		}
		if !d.more() {
			return 0, false
		}
	}
}

// ensure reads until n unread bytes are buffered or the input ends, and
// returns how many are.
func (d *jsonDecoder) ensure(n int) int {
	for d.end-d.pos < n && d.more() {
	}
	return d.end - d.pos
}

// more moves the unread bytes to the front of buf and reads after them. It
// reports whether any byte arrived. A read error is kept in rerr, so bytes
// delivered with it are parsed before it is reported.
func (d *jsonDecoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.base += int64(d.pos)
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	for tries := 0; tries < 100; tries++ {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// fail is the error for input that ends inside a value.
func (d *jsonDecoder) fail() error {
	if d.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

func (d *jsonDecoder) offset() int64 { return d.base + int64(d.pos) }

func (d *jsonDecoder) syntax(c byte, context string) error {
	return fmt.Errorf("json: invalid character %q %s at offset %d", c, context, d.offset())
}

// mismatch records that a value starting with c cannot decode into the
// named type.
func (d *jsonDecoder) mismatch(c byte, into string) {
	d.save(fmt.Errorf("json: cannot unmarshal %s into %s at offset %d", valueKind(c), into, d.offset()))
}

func (d *jsonDecoder) save(err error) {
	if d.saved == nil {
		d.saved = err
	}
}

// valueKind names the kind of JSON value that starts with c.
func valueKind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}
