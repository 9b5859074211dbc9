package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"seco/internal/types"
)

// This file writes the POST /query success payload. Every combination's
// rendering is appended straight into one pooled buffer per request, so
// delivering a ranked list costs no per-combination string and no
// reflective walk. The bytes are exactly those json.NewEncoder(w).Encode
// writes for the same queryResponse — HTML escaping on, invalid UTF-8 as
// \ufffd, floats as encoding/json formats them, a trailing newline — and
// FuzzAppendJSONString, FuzzAppendJSONFloat and
// TestQueryResponseMatchesEncodingJSON hold it to that.

// respBuf is one request's pooled scratch: the body as it is appended,
// and the rendering of the combination being escaped into it.
type respBuf struct{ body, combo []byte }

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

// maxPooledBuf bounds the buffers that go back to a pool, so one huge
// request or response does not stay pinned for the life of the process.
const maxPooledBuf = 64 << 10

func getRespBuf() *respBuf { return respBufs.Get().(*respBuf) }

// put returns b to the pool, dropping any buffer over maxPooledBuf. The
// caller must not touch b, or a body it returned, afterwards.
func (b *respBuf) put() {
	if cap(b.body) > maxPooledBuf {
		b.body = nil
	}
	if cap(b.combo) > maxPooledBuf {
		b.combo = nil
	}
	respBufs.Put(b)
}

// appendResponse encodes r, with combos as its combinations, into the
// body buffer and returns the body. The error is the one encoding/json
// reports for the same payload: a non-finite float is unsupported.
func (b *respBuf) appendResponse(r *queryResponse, combos []*types.Combination) ([]byte, error) {
	d := append(b.body[:0], `{"tenant":`...)
	d = appendJSONString(d, r.Tenant)
	d = append(d, `,"tier":`...)
	d = appendJSONString(d, r.Tier)
	d = append(d, `,"reason":`...)
	d = appendJSONString(d, r.Reason)
	d = append(d, `,"budget_ms":`...)
	d, err := appendJSONFloat(d, r.BudgetMS)
	if err != nil {
		return nil, err
	}
	d = append(d, `,"elapsed_ms":`...)
	if d, err = appendJSONFloat(d, r.ElapsedMS); err != nil {
		return nil, err
	}
	d = append(d, `,"halted":`...)
	d = strconv.AppendBool(d, r.Halted)
	if r.Degraded != nil {
		raw, err := json.Marshal(r.Degraded)
		if err != nil {
			return nil, err
		}
		d = append(d, `,"degraded":`...)
		d = append(d, raw...)
	}
	d = append(d, `,"certified_k":`...)
	d = strconv.AppendInt(d, int64(r.CertifiedK), 10)
	d = append(d, `,"combinations":[`...)
	for i, c := range combos {
		if i > 0 {
			d = append(d, ',')
		}
		d = append(d, `{"score":`...)
		if d, err = appendJSONFloat(d, c.Score); err != nil {
			return nil, err
		}
		d = append(d, `,"combo":`...)
		b.combo = c.AppendTo(b.combo[:0])
		d = appendJSONString(d, b.combo)
		d = append(d, '}')
	}
	d = append(d, "]}\n"...)
	b.body = d
	return d, nil
}

// appendJSONFloat appends f as encoding/json encodes a float64: 'f'
// format, or 'e' below 1e-6 and from 1e21 on with a one-digit negative
// exponent unpadded. NaN and ±Inf are an *json.UnsupportedValueError.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped with
// HTML escaping on: printable, and none of " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes with HTML escaping on: \" \\ \b \f \n \r \t, \u00XX for the
// other control bytes and < > &, \ufffd for each invalid UTF-8 byte, and
// \u2028 and \u2029 for the two line separators JavaScript rejects.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
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
