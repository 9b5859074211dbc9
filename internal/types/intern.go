package types

import (
	"sync"
	"sync/atomic"
)

// Value interning. At serving scale the engine compares join keys — mostly
// strings — millions of times per second, and every scenario repeats the
// same city names, titles and identifiers across tuples. Interning gives
// every distinct string one canonical backing array plus a small integer
// handle, so (a) repeated values share memory instead of duplicating it,
// and (b) equality between two interned values is one integer comparison
// instead of a byte-wise string compare.
//
// Handles are coherent process-wide: every Interner allocates them from
// one global registry, so two values interned through different Interners
// still satisfy "equal handles ⟺ equal strings". That makes the handle
// fast paths in Value.Equal, Value.Compare and Op.Eval unconditionally
// safe — there is no "wrong interner" failure mode, only the slow path
// for values that were never interned (iid 0).
//
// An Interner is the per-scope front of that registry: a read-mostly
// cache that keeps one engine's lookups off the global shards. The engine
// holds one Interner for its whole lifetime (shared across runs), which
// is what keeps the Share layer's memoized chunks canonical between
// queries.

// internRegistry is the process-global string → handle table, sharded to
// keep concurrent engines off one lock. The zero handle is reserved for
// "not interned".
const internShards = 32

var internRegistry [internShards]struct {
	mu sync.RWMutex
	m  map[string]Value
}

var internNext atomic.Uint32

// internShard picks the registry shard for a string (FNV-1a).
func internShard(s string) *struct {
	mu sync.RWMutex
	m  map[string]Value
} {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return &internRegistry[h%internShards]
}

// internGlobal returns the canonical interned Value for s, registering it
// on first sight.
func internGlobal(s string) Value {
	sh := internShard(s)
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[s]; ok {
		return v
	}
	if sh.m == nil {
		sh.m = make(map[string]Value, 64)
	}
	v = Value{kind: KindString, s: s, iid: internNext.Add(1)}
	sh.m[s] = v
	return v
}

// Interner is a per-scope interning front: a local cache over the global
// handle registry. It is safe for concurrent use. The zero Interner is
// not usable; construct with NewInterner.
type Interner struct {
	mu sync.RWMutex
	m  map[string]Value
}

// NewInterner returns an empty interning scope. The cache is not
// pre-sized: a scope lives as long as its engine, the serving layer keeps
// one engine per cached plan, and a 256-entry table is 48 KB each — most
// of a full plan cache's heap — for a map that grows to its working size
// within the engine's first run anyway.
func NewInterner() *Interner {
	return &Interner{m: map[string]Value{}}
}

// String interns s and returns the canonical string Value carrying its
// handle.
func (in *Interner) String(s string) Value {
	in.mu.RLock()
	v, ok := in.m[s]
	in.mu.RUnlock()
	if ok {
		return v
	}
	v = internGlobal(s)
	in.mu.Lock()
	in.m[v.s] = v
	in.mu.Unlock()
	return v
}

// Value returns v with its canonical interned form when v is a string;
// all other kinds (and already-interned strings) pass through unchanged.
func (in *Interner) Value(v Value) Value {
	if v.kind != KindString || v.iid != 0 {
		return v
	}
	return in.String(v.s)
}

// TupleInPlace rewrites the tuple's string values (atomic attributes and
// repeating-group sub-values) to their canonical interned forms. It
// mutates t and must only be called while the caller exclusively owns the
// tuple — e.g. at load time, before the tuple is served.
func (in *Interner) TupleInPlace(t *Tuple) {
	for k, v := range t.Attrs {
		if iv := in.Value(v); iv.iid != v.iid {
			t.Attrs[k] = iv
		}
	}
	for _, subs := range t.Groups {
		for _, st := range subs {
			for k, v := range st {
				if iv := in.Value(v); iv.iid != v.iid {
					st[k] = iv
				}
			}
		}
	}
}

// tupleInterned reports whether every string value in the tuple already
// carries an intern handle.
func tupleInterned(t *Tuple) bool {
	for _, v := range t.Attrs {
		if v.kind == KindString && v.iid == 0 {
			return false
		}
	}
	for _, subs := range t.Groups {
		for _, st := range subs {
			for _, v := range st {
				if v.kind == KindString && v.iid == 0 {
					return false
				}
			}
		}
	}
	return true
}

// Tuple returns a canonical interned form of t: t itself when every
// string value is already interned (the common case once services intern
// at load time), otherwise an interned deep copy. The original is never
// mutated, so it is safe on tuples shared with concurrent readers.
func (in *Interner) Tuple(t *Tuple) *Tuple {
	if tupleInterned(t) {
		return t
	}
	c := t.Clone()
	in.TupleInPlace(c)
	return c
}

// global is the default interning scope used by the package-level
// helpers; services that intern at load time share it, so their handles
// agree with every engine-scoped Interner.
var global = NewInterner()

// Intern interns s in the process-global scope.
func Intern(s string) Value { return global.String(s) }

// InternValue interns string values in the process-global scope.
func InternValue(v Value) Value { return global.Value(v) }

// InternTupleInPlace canonicalizes a tuple's string values in the
// process-global scope. The caller must exclusively own the tuple.
func InternTupleInPlace(t *Tuple) { global.TupleInPlace(t) }

// Interned reports whether the value carries an intern handle.
func (v Value) Interned() bool { return v.iid != 0 }

// Handle returns the value's intern handle (0 for values never interned).
// Handles are process-wide coherent — equal handles hold equal strings and
// interned equal strings share one handle — which is the property the
// multi-way ranked join's posting lists key on.
func (v Value) Handle() uint32 { return v.iid }
