package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool", KindDate: "date",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null is not null")
	}
	if v := String("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("String: %v", v)
	}
	if v := Int(7); v.Kind() != KindInt || v.IntVal() != 7 || v.FloatVal() != 7 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.FloatVal() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.BoolVal() {
		t.Errorf("Bool: %v", v)
	}
	day := time.Date(2009, 7, 1, 10, 0, 0, 0, time.FixedZone("CET", 3600))
	if v := Date(day); v.Kind() != KindDate || !v.Time().Equal(day) {
		t.Errorf("Date: %v", v)
	}
	if v := Date(day); v.Time().Location() != time.UTC {
		t.Error("Date did not normalize to UTC")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{String("ab"), `"ab"`},
		{Int(-3), "-3"},
		{Float(0.5), "0.5"},
		{Bool(false), "false"},
		{Date(time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)), "2009-07-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(2.0), Int(2), 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Bool(true), Bool(false), 1},
		{Date(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)), Date(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)), -1},
		{Date(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)), Date(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)), 0},
		{Date(time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)), Date(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)), 1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	bad := [][2]Value{
		{Null, Int(1)},
		{Int(1), Null},
		{String("a"), Int(1)},
		{Bool(true), String("x")},
		{Date(time.Now()), Int(1)},
	}
	for _, p := range bad {
		if _, err := p[0].Compare(p[1]); err == nil {
			t.Errorf("Compare(%v,%v) succeeded, want error", p[0], p[1])
		}
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) != Float(2.0)")
	}
	if Int(2).Equal(String("2")) {
		t.Error("Int(2) == String(2)")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Casablanca", "%casa%", true},
		{"Casablanca", "casa%", true},
		{"Casablanca", "%casa", false},
		{"Casablanca", "%anca", true},
		{"Casablanca", "casablanca", true},
		{"Casablanca", "blanca", false},
		{"", "%", true},
	}
	for _, c := range cases {
		got, err := String(c.s).Like(String(c.p))
		if err != nil {
			t.Fatalf("Like(%q,%q): %v", c.s, c.p, err)
		}
		if got != c.want {
			t.Errorf("Like(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if _, err := Int(1).Like(String("%")); err == nil {
		t.Error("Like on int succeeded, want error")
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{`"hello"`, String("hello")},
		{`'hi'`, String("hi")},
		{"42", Int(42)},
		{"4.5", Float(4.5)},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"NULL", Null},
		{"2009-07-01", Date(time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC))},
		{"Comedy", String("Comedy")},
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		if got.Kind() != c.want.Kind() {
			t.Errorf("ParseValue(%q) kind = %v, want %v", c.in, got.Kind(), c.want.Kind())
			continue
		}
		if !got.IsNull() && !got.Equal(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Int(a).Compare(Int(b))
		y, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareStringTotalOrderProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		ab, _ := String(a).Compare(String(b))
		bc, _ := String(b).Compare(String(c))
		ac, _ := String(a).Compare(String(c))
		if ab <= 0 && bc <= 0 {
			return ac <= 0 // transitivity
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEqKeyAgreesWithCompare: the four spellings of equality agree — two
// values share an equality key exactly when Compare reports them equal,
// when Equal does and when OpEq holds — across int and float, across the
// two zeros, across strings on separate backing arrays; and the values
// Compare cannot settle by a key have none.
func TestEqKeyAgreesWithCompare(t *testing.T) {
	day := time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)
	vals := []Value{
		Int(3), Float(3.0), Int(0), Float(0), Float(math.Copysign(0, -1)), Float(0.5), Int(-3),
		Float(math.Inf(1)), Float(math.Inf(-1)), Int(1 << 60), Float(1 << 60),
		String("a"), String(string([]byte("a"))), String("b"), String(""), Bool(true), Bool(false),
		Date(day), Date(day.In(time.FixedZone("CET", 3600))), Date(day.Add(time.Nanosecond)),
	}
	for _, a := range vals {
		if _, ok := a.EqKey(); !ok {
			t.Errorf("%v has no key", a)
		}
		for _, b := range vals {
			checkEquality(t, a, b)
		}
	}
	for _, c := range []struct {
		v     Value
		class uint8
	}{
		{Null, ClassNull},
		{Float(math.NaN()), ClassNumeric},
		{Date(time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)), ClassDate},
		{Date(time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC)), ClassDate},
	} {
		if k, ok := c.v.EqKey(); ok || k.Class != c.class {
			t.Errorf("%v: key %v ok=%v, want no key of class %d", c.v, k, ok, c.class)
		}
	}
}

// checkEquality asserts, for two keyed values, that key equality, a zero
// Compare, Equal and OpEq agree, and that their classes differ exactly
// when Compare fails.
func checkEquality(t *testing.T, a, b Value) {
	t.Helper()
	ka, _ := a.EqKey()
	kb, _ := b.EqKey()
	c, err := a.Compare(b)
	cmpEq := err == nil && c == 0
	opEq, opErr := OpEq.Eval(a, b)
	if cmpEq != (ka == kb) || cmpEq != a.Equal(b) || cmpEq != (opEq && opErr == nil) {
		t.Errorf("%v / %v: keys equal %v, Compare equal %v, Equal %v, OpEq %v %v",
			a, b, ka == kb, cmpEq, a.Equal(b), opEq, opErr)
	}
	if (err != nil) != (ka.Class != kb.Class) {
		t.Errorf("%v / %v: Compare error %v, classes %d %d", a, b, err, ka.Class, kb.Class)
	}
}

// FuzzValueEquality: for any two query literals, the four spellings of
// equality agree on keyed values, and a class mismatch is exactly a
// Compare error. A null operand equals nothing under any spelling.
func FuzzValueEquality(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y string) {
		a, b := ParseValue(x), ParseValue(y)
		if a.IsNull() || b.IsNull() {
			if _, err := a.Compare(b); err == nil {
				t.Errorf("%v / %v: Compare with null succeeded", a, b)
			}
			if ok, _ := OpEq.Eval(a, b); ok || a.Equal(b) {
				t.Errorf("%v / %v: null compares equal", a, b)
			}
			return
		}
		_, okA := a.EqKey()
		_, okB := b.EqKey()
		if okA && okB {
			checkEquality(t, a, b)
			return
		}
		_, err := a.Compare(b)
		if (err != nil) != (a.Class() != b.Class()) {
			t.Errorf("%v / %v: Compare error %v, classes %d %d", a, b, err, a.Class(), b.Class())
		}
	})
}
