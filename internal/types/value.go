// Package types defines the value model shared by every layer of the SeCo
// stack: typed atomic values, comparison operators, tuples with repeating
// groups, and ranked composite tuples assembled by joins.
//
// The model follows Section 3.1 of the chapter: a tuple maps each attribute
// to a value; atomic attributes are single-valued while repeating groups are
// multi-valued (a set of sub-tuples). Composite tuples carry per-source
// scores in [0,1] and the provenance of each component.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the atomic value types supported by service attributes.
type Kind int

const (
	// KindNull is the zero Kind; it marks the absence of a value.
	KindNull Kind = iota
	// KindString is a UTF-8 string.
	KindString
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindBool is a boolean.
	KindBool
	// KindDate is a calendar timestamp (UTC).
	KindDate
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable typed atomic value. The zero Value is the null
// value. Values of different numeric kinds (int, float) compare numerically
// with each other; all other cross-kind comparisons are errors.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
}

// Null is the null value.
var Null = Value{}

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Date returns a date value (normalized to UTC).
func Date(t time.Time) Value { return Value{kind: KindDate, t: t.UTC()} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload; for KindInt it returns the integer
// widened to float so numeric code can treat both uniformly.
func (v Value) FloatVal() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// BoolVal returns the boolean payload; it is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// Time returns the date payload; it is only meaningful for KindDate.
func (v Value) Time() time.Time { return v.t }

// String renders the value as in query literals: strings are quoted, dates
// use RFC 3339 date form, null renders as NULL.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering to dst and returns the extended
// buffer.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	case KindDate:
		return v.t.AppendFormat(dst, "2006-01-02")
	default:
		return append(dst, '?')
	}
}

// Equal reports deep equality of two values. Numeric values of different
// kinds are equal when they denote the same number; two strings are equal
// when their bytes are.
func (v Value) Equal(w Value) bool {
	if v.kind == KindString && w.kind == KindString {
		return v.s == w.s
	}
	c, err := v.Compare(w)
	return err == nil && c == 0
}

// numeric reports whether the value is of a numeric kind.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders v against w, returning -1, 0 or +1. It returns an error
// for incompatible kinds or null operands (three-valued logic is handled by
// predicate evaluation, not by Compare).
func (v Value) Compare(w Value) (int, error) {
	if v.kind == KindNull || w.kind == KindNull {
		return 0, fmt.Errorf("types: cannot compare null values")
	}
	if v.numeric() && w.numeric() {
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != w.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", v.kind, w.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s), nil
	case KindBool:
		switch {
		case v.b == w.b:
			return 0, nil
		case !v.b:
			return -1, nil
		default:
			return 1, nil
		}
	case KindDate:
		switch {
		case v.t.Before(w.t):
			return -1, nil
		case v.t.After(w.t):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("types: cannot compare kind %s", v.kind)
	}
}

// Value classes partition the kinds by comparability: the numeric kinds
// share a class (they compare with each other), every other kind is its
// own class, and Compare fails exactly when two non-null classes differ.
const (
	ClassNull uint8 = iota
	ClassNumeric
	ClassString
	ClassBool
	ClassDate
)

// Class returns the value's class: ClassNull for null, ClassNumeric for
// either numeric kind. It is EqKey's class without the key.
func (v Value) Class() uint8 {
	switch v.kind {
	case KindInt, KindFloat:
		return ClassNumeric
	case KindString:
		return ClassString
	case KindBool:
		return ClassBool
	case KindDate:
		return ClassDate
	default:
		return ClassNull
	}
}

// EqKey is the canonical equality key of a value — the one key every
// equality index (the multi-way join's posting lists, service.Table's)
// files values under. Two keys are equal exactly when Compare reports the
// values equal, so an index lookup needs no verification. A string keys on
// the string itself: Str is set for ClassString and empty otherwise, Bits
// the reverse.
type EqKey struct {
	Class uint8
	Bits  uint64
	Str   string
}

// maxKeySec bounds the dates whose UnixNano fits an int64.
const maxKeySec = math.MaxInt64 / int64(time.Second)

// EqKey returns the value's equality key. The class is always reported;
// ok is false when the value cannot be keyed: null (it equals nothing), a
// NaN (Compare reports it equal to every number) and a date outside
// UnixNano's range. Such values must be matched by comparison instead.
// Numerics key on their float bits with -0 normalised to +0, as Compare
// widens ints to floats; a string keys on its bytes.
func (v Value) EqKey() (k EqKey, ok bool) {
	switch v.kind {
	case KindInt, KindFloat:
		f := v.FloatVal()
		if math.IsNaN(f) {
			return EqKey{Class: ClassNumeric}, false
		}
		if f == 0 {
			f = 0 // -0 == +0
		}
		return EqKey{Class: ClassNumeric, Bits: math.Float64bits(f)}, true
	case KindString:
		return EqKey{Class: ClassString, Str: v.s}, true
	case KindBool:
		if v.b {
			return EqKey{Class: ClassBool, Bits: 1}, true
		}
		return EqKey{Class: ClassBool}, true
	case KindDate:
		if s := v.t.Unix(); s < -maxKeySec || s > maxKeySec {
			return EqKey{Class: ClassDate}, false
		}
		return EqKey{Class: ClassDate, Bits: uint64(v.t.UnixNano())}, true
	default:
		return EqKey{}, false
	}
}

// Like implements the query language's "like" operator: a case-insensitive
// substring match with SQL-style % wildcards at either end. Both operands
// must be strings.
func (v Value) Like(pattern Value) (bool, error) {
	if v.kind != KindString || pattern.kind != KindString {
		return false, fmt.Errorf("types: like requires string operands, got %s like %s", v.kind, pattern.kind)
	}
	s := strings.ToLower(v.s)
	p := strings.ToLower(pattern.s)
	prefix := strings.HasPrefix(p, "%")
	suffix := strings.HasSuffix(p, "%")
	core := strings.Trim(p, "%")
	switch {
	case prefix && suffix:
		return strings.Contains(s, core), nil
	case prefix:
		return strings.HasSuffix(s, core), nil
	case suffix:
		return strings.HasPrefix(s, core), nil
	default:
		return s == p, nil
	}
}

// ParseValue parses a literal into a Value, trying bool, int, float and
// date (YYYY-MM-DD) in turn and falling back to string. Quoted literals are
// always strings.
func ParseValue(lit string) Value {
	if len(lit) >= 2 && (lit[0] == '"' || lit[0] == '\'') && lit[len(lit)-1] == lit[0] {
		return String(lit[1 : len(lit)-1])
	}
	switch lit {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	case "NULL", "null":
		return Null
	}
	if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return Float(f)
	}
	if t, err := time.Parse("2006-01-02", lit); err == nil {
		return Date(t)
	}
	return String(lit)
}
