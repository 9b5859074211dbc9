package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"seco/internal/types"
)

// This file reads the POST /query body. The body is read into one pooled
// buffer and decoded by hand into pooled scratch: no reflection, no
// decoder and no map per request. It accepts exactly the bodies that
// json.NewDecoder with DisallowUnknownFields decodes into
//
//	struct {
//		Query      string            `json:"query"`
//		K          int               `json:"k"`
//		DeadlineMS float64           `json:"deadline_ms"`
//		Tenant     string            `json:"tenant"`
//		Inputs     map[string]string `json:"inputs"`
//	}
//
// to the same fields, and FuzzQueryBody holds it to that:
//
//   - only the first JSON value is read and what follows it is ignored;
//     that value is an object, or null, which sets nothing;
//   - a key names a field when the two are equal under Unicode simple
//     case folding ("K" and the Kelvin sign both name k); any other key is
//     refused;
//   - for a repeated field the last value wins, except that repeated
//     inputs objects merge; null leaves a string or number field as it
//     was, sets inputs to none, and binds "" inside inputs;
//   - k is an integer literal within int, deadline_ms a finite float64,
//     and neither is taken from a string;
//   - strings decode their escapes (a lone surrogate as U+FFFD), refuse
//     raw control bytes and turn invalid UTF-8 into U+FFFD.

// wireRequest is a decoded POST /query body. Every field is optional: an
// empty body runs the scenario's canonical query with the server defaults
// under the anonymous tenant. Strings are bytes of the scratch they were
// decoded into.
type wireRequest struct {
	// query is SecoQL text (default: the scenario's canonical query).
	query []byte
	// k overrides the requested combinations.
	k int
	// deadlineMS is the client's end-to-end deadline in milliseconds.
	deadlineMS float64
	// tenant identifies the quota bucket (X-Seco-Tenant also accepted).
	tenant []byte
	// inputs override the scenario's INPUT bindings (literal syntax:
	// quoted strings, numbers, true/false, dates), in body order; a later
	// pair for a name overrides an earlier one.
	inputs []inputPair
}

// inputPair is one inputs override: an INPUT name and its literal.
type inputPair struct{ name, lit []byte }

// queryScratch is one request's pooled scratch: the body as read, the
// strings that needed unescaping, the decoded request and the map its
// overrides are bound through. Nothing in it outlives the request: every
// string the handler keeps is copied out, and the map goes back only
// after the run that read it has returned.
type queryScratch struct {
	body, str []byte
	req       wireRequest
	inputs    map[string]types.Value
}

var queryScratches = sync.Pool{New: func() any { return new(queryScratch) }}

func getQueryScratch() *queryScratch { return queryScratches.Get().(*queryScratch) }

// maxPooledInputs bounds the overrides a pooled scratch keeps room for.
const maxPooledInputs = 64

// put returns sc to the pool, dropping the decoded request, and any
// buffer over maxPooledBuf or room for more than maxPooledInputs
// overrides.
func (sc *queryScratch) put() {
	if cap(sc.body) > maxPooledBuf {
		sc.body = nil
	}
	if cap(sc.str) > maxPooledBuf {
		sc.str = nil
	}
	if len(sc.inputs) > maxPooledInputs {
		sc.inputs = nil
	}
	pairs := sc.req.inputs[:0]
	if cap(pairs) > maxPooledInputs {
		pairs = nil
	}
	sc.req = wireRequest{inputs: pairs}
	queryScratches.Put(sc)
}

// read reads r's body, at most maxBodyBytes of it, and decodes it into
// sc.req. A longer body is refused with the *http.MaxBytesError the
// handler answers 413 with, whatever it holds.
func (sc *queryScratch) read(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := sc.body[:0]
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.body = b
			return err
		}
	}
	sc.body = b
	d := decoder{data: b, str: sc.str[:0]}
	err := d.request(&sc.req)
	sc.str = d.str
	return err
}

// bind returns the scenario's bindings with the request's overrides over
// them, in sc's map. A later override of a name wins, and the first bad
// one in name order is refused.
func (sc *queryScratch) bind(scenario map[string]types.Value) (map[string]types.Value, error) {
	pairs := sc.req.inputs
	// Stable, so the last of a name's pairs stays last.
	slices.SortStableFunc(pairs, func(a, b inputPair) int { return bytes.Compare(a.name, b.name) })
	if sc.inputs == nil {
		sc.inputs = make(map[string]types.Value, len(scenario)+len(pairs))
	}
	m := sc.inputs
	clear(m)
	for name, v := range scenario {
		m[name] = v
	}
	for i, p := range pairs {
		if i+1 < len(pairs) && bytes.Equal(pairs[i+1].name, p.name) {
			continue
		}
		name := string(p.name)
		v := types.ParseValue(string(p.lit))
		if err := checkOverride(name, v, scenario); err != nil {
			return nil, err
		}
		m[name] = v
	}
	return m, nil
}

// decoder walks one body. str collects the strings that cannot be
// sliced out of data as they are.
type decoder struct {
	data []byte
	off  int
	str  []byte
}

// request decodes the body's first value into r.
func (d *decoder) request(r *wireRequest) error {
	d.skipSpace()
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.want("a JSON object")
	}
	return d.object(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("query")):
			return d.stringField(&r.query)
		case bytes.EqualFold(key, []byte("k")):
			return d.intField(&r.k)
		case bytes.EqualFold(key, []byte("deadline_ms")):
			return d.floatField(&r.deadlineMS)
		case bytes.EqualFold(key, []byte("tenant")):
			return d.stringField(&r.tenant)
		case bytes.EqualFold(key, []byte("inputs")):
			return d.inputs(&r.inputs)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// inputs decodes the inputs object, appending its pairs to *pairs, or a
// null, which drops the pairs decoded so far.
func (d *decoder) inputs(pairs *[]inputPair) error {
	switch d.peek() {
	case '{':
	case 'n':
		*pairs = (*pairs)[:0]
		return d.literal("null")
	default:
		return d.want("inputs as an object")
	}
	return d.object(func(name []byte) error {
		var lit []byte
		if err := d.stringField(&lit); err != nil {
			return err
		}
		*pairs = append(*pairs, inputPair{name, lit})
		return nil
	})
}

// object decodes the object whose '{' is next, calling field for each
// key with the decoder at the key's value.
func (d *decoder) object(field func(key []byte) error) error {
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.want("an object key")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.want("':' after an object key")
		}
		d.off++
		d.skipSpace()
		if err := field(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			d.off++
			return nil
		default:
			return d.want("',' or '}' after an object value")
		}
	}
}

// stringField decodes a string into *dst, or a null, which leaves it.
func (d *decoder) stringField(dst *[]byte) error {
	switch d.peek() {
	case '"':
		s, err := d.string()
		*dst = s
		return err
	case 'n':
		return d.literal("null")
	}
	return d.want("a string")
}

// intField decodes an integer literal within int into *dst, or a null,
// which leaves it.
func (d *decoder) intField(dst *int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return fmt.Errorf("k: %q is not an integer within int", lit)
	}
	*dst = int(n)
	return nil
}

// floatField decodes a number that is a finite float64 into *dst, or a
// null, which leaves it.
func (d *decoder) floatField(dst *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("deadline_ms: %q is not a finite float64", lit)
	}
	*dst = f
	return nil
}

// number scans the JSON number literal that is next.
func (d *decoder) number() ([]byte, error) {
	start, i := d.off, d.off
	if d.at(i) == '-' {
		i++
	}
	switch c := d.at(i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = d.digits(i + 1)
	default:
		d.off = i
		return nil, d.want("a number")
	}
	if d.at(i) == '.' {
		j := d.digits(i + 1)
		if j == i+1 {
			d.off = j
			return nil, d.want("a digit after the decimal point")
		}
		i = j
	}
	if c := d.at(i); c == 'e' || c == 'E' {
		i++
		if c := d.at(i); c == '+' || c == '-' {
			i++
		}
		j := d.digits(i)
		if j == i {
			d.off = j
			return nil, d.want("a digit in the exponent")
		}
		i = j
	}
	d.off = i
	return d.data[start:i], nil
}

// digits returns the offset past the run of digits at i.
func (d *decoder) digits(i int) int {
	for c := d.at(i); '0' <= c && c <= '9'; c = d.at(i) {
		i++
	}
	return i
}

// string decodes the string whose opening quote is next. It returns the
// body's own bytes when they need no rewriting, else their decoding,
// appended to d.str.
func (d *decoder) string() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i:i], nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.want("a closing quote")
}

// unescape goes on decoding the string that began at start from i, where
// the first byte that needs rewriting is.
func (d *decoder) unescape(start, i int) ([]byte, error) {
	n := len(d.str)
	d.str = append(d.str, d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return d.str[n:len(d.str):len(d.str)], nil
		case c < ' ':
			d.off = i
			return nil, d.want("no control character in a string")
		case c < utf8.RuneSelf && c != '\\':
			d.str = append(d.str, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[i:])
			d.str = utf8.AppendRune(d.str, r)
			i += size
		default:
			var ok bool
			if i, ok = d.escape(i); !ok {
				d.off = i
				return nil, d.want("a valid escape")
			}
		}
	}
	d.off = len(d.data)
	return nil, d.want("a closing quote")
}

// escapes maps the single-character escapes to the bytes they stand for.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape decodes the escape at data[i] onto d.str and returns the offset
// past it. A \u escape of a high surrogate takes the \u escape after it
// when the two make a pair; a surrogate that makes no pair is U+FFFD.
func (d *decoder) escape(i int) (int, bool) {
	c := d.at(i + 1)
	if b := escapes[c]; b != 0 {
		d.str = append(d.str, b)
		return i + 2, true
	}
	r, ok := d.hex4(i)
	if !ok {
		return i, false
	}
	i += 6
	if utf16.IsSurrogate(r) {
		r2, ok := d.hex4(i)
		if pair := utf16.DecodeRune(r, r2); ok && pair != utf8.RuneError {
			r = pair
			i += 6
		} else {
			r = utf8.RuneError
		}
	}
	d.str = utf8.AppendRune(d.str, r)
	return i, true
}

// hex4 reads the \uXXXX escape at data[i].
func (d *decoder) hex4(i int) (rune, bool) {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// literal consumes lit (null), which must be next.
func (d *decoder) literal(lit string) error {
	end := min(d.off+len(lit), len(d.data))
	if string(d.data[d.off:end]) != lit {
		return d.want(lit)
	}
	d.off = end
	return nil
}

func (d *decoder) skipSpace() {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// at is the byte at i, or 0 past the end.
func (d *decoder) at(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

func (d *decoder) peek() byte { return d.at(d.off) }

// want reports that what is at d.off is not what the body needs there.
func (d *decoder) want(what string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.off], d.off, what)
}
