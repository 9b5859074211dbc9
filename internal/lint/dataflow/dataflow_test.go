package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"seco/internal/lint/inspect"
)

// check type-checks a self-contained source string and returns its file,
// info and fileset. Sources must not import anything.
func check(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

// fnNamed returns the Func for the named declaration.
func fnNamed(t *testing.T, info *types.Info, f *ast.File, name string) inspect.Func {
	t.Helper()
	for _, fn := range inspect.Funcs(info, f) {
		if fn.Name == name && fn.Lit == nil {
			return fn
		}
	}
	t.Fatalf("no function %q", name)
	return inspect.Func{}
}

// escSrc declares a tracked source get() and a sink type; each test
// function exercises one escape context.
const escSrc = `package p
type box struct{ buf []int; next *box }
var global []int
func get() []int { return nil }
func use(b []int) {}
func (b *box) local() {
	s := get()
	s = append(s, 1)
	_ = len(s)
	t := s[:0]
	_ = t
}
func (b *box) recvField() { b.buf = get() }
func (b *box) otherField(o *box) { o.buf = get() }
func (b *box) toGlobal() { global = get() }
func (b *box) returned() []int { s := get(); return s }
func (b *box) sent(ch chan []int) { s := get(); ch <- s }
func (b *box) captured() {
	s := get()
	go func() { _ = s[0] }()
}
func (b *box) passed() { s := get(); use(s) }
func (b *box) composite() *box { return &box{buf: get()} }
`

func classifyIn(t *testing.T, name string) []Escape {
	t.Helper()
	_, f, info := check(t, escSrc)
	fn := fnNamed(t, info, f, name)
	return Classify(info, fn, func(call *ast.CallExpr) (int, bool) {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "get" {
			return 0, true
		}
		return 0, false
	})
}

func TestClassify(t *testing.T) {
	cases := []struct {
		fn   string
		want []EscapeClass
	}{
		{"local", nil},
		{"recvField", []EscapeClass{EscapeRecvField}},
		{"otherField", []EscapeClass{EscapeField}},
		{"toGlobal", []EscapeClass{EscapeGlobal}},
		{"returned", []EscapeClass{EscapeReturn}},
		{"sent", []EscapeClass{EscapeChan}},
		{"captured", []EscapeClass{EscapeGoroutine}},
		{"passed", []EscapeClass{EscapeArg}},
		{"composite", []EscapeClass{EscapeComposite}},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			escapes := classifyIn(t, tc.fn)
			var got []EscapeClass
			for _, e := range escapes {
				got = append(got, e.Class)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("escapes = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("escape %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// pairSrc models a pool API: get() acquires, put(s) releases.
const pairSrc = `package p
func get() []int { return nil }
func put(s []int) {}
func use(s []int) {}
func cond() bool { return false }
`

// trackIn runs Track over the body appended to pairSrc and returns the
// violation kinds in report order.
func trackIn(t *testing.T, body string) []PairKind {
	t.Helper()
	_, f, info := check(t, pairSrc+body)
	fn := fnNamed(t, info, f, "f")
	var kinds []PairKind
	Track(PairSpec{
		Info: info,
		Acquire: func(call *ast.CallExpr) (int, bool) {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "get" {
				return 0, true
			}
			return 0, false
		},
		Release: func(call *ast.CallExpr) ast.Expr {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "put" && len(call.Args) == 1 {
				return call.Args[0]
			}
			return nil
		},
		Report: func(v PairViolation) { kinds = append(kinds, v.Kind) },
	}, fn)
	return kinds
}

func TestTrack(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []PairKind
	}{
		{"balanced", `func f() { s := get(); use(s); put(s) }`, nil},
		{"deferred", `func f() { s := get(); defer put(s); use(s) }`, nil},
		{"missing", `func f() { s := get(); _ = s[0] }`, []PairKind{MissingRelease}},
		{"missing_on_one_path", `func f() {
			s := get()
			if cond() {
				put(s)
			}
		}`, []PairKind{MissingRelease}},
		{"early_return", `func f() {
			s := get()
			if cond() {
				return
			}
			put(s)
		}`, []PairKind{MissingRelease}},
		{"released_both_paths", `func f() {
			s := get()
			if cond() {
				put(s)
			} else {
				put(s)
			}
		}`, nil},
		{"use_after_release", `func f() { s := get(); put(s); use(s) }`, []PairKind{UseAfterRelease}},
		{"append_after_release", `func f() { s := get(); put(s); s = append(s, 1) }`, []PairKind{UseAfterRelease}},
		{"double_release", `func f() { s := get(); put(s); put(s) }`, []PairKind{DoubleRelease}},
		{"overwrite_while_held", `func f() {
			s := get()
			s = get()
			put(s)
		}`, []PairKind{OverwriteWhileHeld}},
		{"reslice_keeps_binding", `func f() {
			s := get()
			s = s[:0]
			s = append(s, 1)
			put(s)
		}`, nil},
		{"dropped", `func f() { get() }`, []PairKind{DroppedAcquire}},
		{"escape_by_return", `func f() []int { s := get(); return s }`, nil},
		{"arg_pass_transfers_ownership", `func f() { s := get(); use(s) }`, nil},
		{"loop_reacquire_without_release", `func f() {
			for cond() {
				s := get()
				_ = s[0]
			}
		}`, []PairKind{MissingRelease}},
		{"loop_balanced", `func f() {
			for cond() {
				s := get()
				put(s)
			}
		}`, nil},
		{"switch_release_all_cases", `func f(n int) {
			s := get()
			switch n {
			case 0:
				put(s)
			default:
				put(s)
			}
		}`, nil},
		{"switch_release_one_case", `func f(n int) {
			s := get()
			switch n {
			case 0:
				put(s)
			default:
			}
		}`, []PairKind{MissingRelease}},
		{"lazy_acquire_in_loop", `func f() {
			var out []int
			for cond() {
				if out == nil {
					out = get()
				}
				out = append(out, 1)
			}
			put(out)
		}`, nil},
		{"lazy_acquire_returned", `func f() []int {
			var out []int
			for cond() {
				if out == nil {
					out = get()
				}
			}
			return out
		}`, nil},
		{"goroutine_capture_transfers", `func f() {
			s := get()
			go func() { put(s) }()
		}`, nil},
		{"deferred_closure", `func f() {
			s := get()
			defer func() { put(s) }()
			use(s)
		}`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := trackIn(t, tc.body)
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %v, want %v", kindsStr(got), kindsStr(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("violation %d = %s, want %s", i, kindsStr(got[i:i+1]), kindsStr(tc.want[i:i+1]))
				}
			}
		})
	}
}

func kindsStr(ks []PairKind) string {
	names := []string{"MissingRelease", "UseAfterRelease", "DoubleRelease", "OverwriteWhileHeld", "DroppedAcquire"}
	var out []string
	for _, k := range ks {
		out = append(out, names[k])
	}
	return "[" + strings.Join(out, " ") + "]"
}
