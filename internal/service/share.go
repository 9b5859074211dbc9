package service

import (
	"context"
	"sync"
	"sync/atomic"

	"seco/internal/mart"
	"seco/internal/obs"
)

// Share is the cross-query call-sharing layer of the Invoker: a
// singleflight-deduplicating memo cache keyed on (service, input binding,
// chunk index). When several concurrent runs demand the same chunk of the
// same ranked result list, exactly one request-response goes to the wire
// and every waiter shares its result; chunks already fetched are replayed
// from memory without any wire traffic.
//
// Deduplication and memoization are one mechanism here, not two options:
// a ranked chunk stream is only reachable through its prefix (chunk i
// exists only behind chunks 0..i-1 of one live invocation), so coalescing
// two readers onto one wire stream requires retaining the prefix for the
// later reader — which is exactly a memo cache with per-chunk flights.
// Entries live as long as the Share — the lifetime of the engine that
// owns it.
//
// Error handling is per-caller: a failed wire fetch is never cached and
// is returned only to the caller that led it; waiters re-enter the loop
// and lead their own attempt, so one run's cancellation or budget expiry
// never poisons another run's result. Share is safe for concurrent use.
type Share struct {
	inner   Service
	mu      sync.Mutex
	entries map[string]*shareEntry

	wireInvokes atomic.Int64
	wireFetches atomic.Int64
	memoHits    atomic.Int64
	dedupHits   atomic.Int64

	// metrics mirrors of the counters above, registered per underlying
	// service interface; nil handles are no-ops.
	mWire  *obs.Counter
	mMemo  *obs.Counter
	mDedup *obs.Counter
}

// NewShare wraps svc in a call-sharing layer.
func NewShare(svc Service) *Share {
	return &Share{inner: svc, entries: map[string]*shareEntry{}}
}

// bindMetrics registers the layer's counters on reg, keyed by the
// wrapped service's interface name. A nil registry leaves the layer
// unmetered.
func (s *Share) bindMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	name := s.inner.Interface().Name
	s.mWire = reg.Counter("seco.share.wire_fetches." + name)
	s.mMemo = reg.Counter("seco.share.memo_hits." + name)
	s.mDedup = reg.Counter("seco.share.dedup_joins." + name)
}

// ShareStats are the coherent counters of one or more Share layers.
type ShareStats struct {
	// WireInvocations counts Invoke calls that reached the wrapped
	// service.
	WireInvocations int64
	// WireFetches counts request-responses that reached the wrapped
	// service.
	WireFetches int64
	// MemoHits counts fetches served from an already-cached chunk.
	MemoHits int64
	// DedupHits counts fetches that waited on another caller's in-flight
	// wire call and shared its result (the singleflight coalescing).
	DedupHits int64
}

// Saved is the number of request-responses the sharing layer absorbed.
func (s ShareStats) Saved() int64 { return s.MemoHits + s.DedupHits }

// Add accumulates o into s.
func (s *ShareStats) Add(o ShareStats) {
	s.WireInvocations += o.WireInvocations
	s.WireFetches += o.WireFetches
	s.MemoHits += o.MemoHits
	s.DedupHits += o.DedupHits
}

// Counters returns the layer's sharing counters (Stats is taken by the
// Service interface, which this layer forwards). The fundamental
// coherence invariant — the concurrent stress tests assert it — is that
// the sum of all runs' logical fetches equals WireFetches + MemoHits +
// DedupHits.
func (s *Share) Counters() ShareStats {
	return ShareStats{
		WireInvocations: s.wireInvokes.Load(),
		WireFetches:     s.wireFetches.Load(),
		MemoHits:        s.memoHits.Load(),
		DedupHits:       s.dedupHits.Load(),
	}
}

// Unwrap implements Wrapper.
func (s *Share) Unwrap() Service { return s.inner }

// Interface implements Service.
func (s *Share) Interface() *mart.Interface { return s.inner.Interface() }

// Stats implements Service.
func (s *Share) Stats() Stats { return s.inner.Stats() }

// appendInputKey canonicalizes a binding for use as a map key:
// "path=value;" per bound path, appended to b. This runs on every Invoke
// through the Share layer; the binding is sorted by path, so equal
// bindings key equally.
func appendInputKey(b []byte, in Input) []byte {
	for _, x := range in {
		b = append(b, x.Path...)
		b = append(b, '=')
		b = x.Value.AppendTo(b)
		b = append(b, ';')
	}
	return b
}

// Invoke implements Service. The key is built in a stack buffer and
// looked up without a string conversion; only a new entry allocates its
// key and a copy of the binding, so the caller may reuse in afterwards.
func (s *Share) Invoke(ctx context.Context, in Input) (Invocation, error) {
	si := s.inner.Interface()
	if err := CheckInput(si, in); err != nil {
		return nil, err
	}
	var buf [128]byte
	key := appendInputKey(buf[:0], in)
	s.mu.Lock()
	entry, ok := s.entries[string(key)]
	if !ok {
		entry = &shareEntry{share: s, input: in.Clone()}
		s.entries[string(key)] = entry
	}
	s.mu.Unlock()
	return &shareInvocation{entry: entry}, nil
}

// shareEntry is the shared ranked stream for one input binding: the
// cached chunk prefix, the live upstream invocation extending it, and the
// flight state coalescing concurrent extenders.
type shareEntry struct {
	share *Share
	input Input

	mu       sync.Mutex
	chunks   []Chunk
	done     bool
	upstream Invocation
	// fetching marks a wire call for chunks[len(chunks)] in flight;
	// flight is closed when it completes (successfully or not).
	fetching bool
	flight   chan struct{}
}

// fetchAt returns chunk i, extending the shared prefix through the
// wrapped service when needed.
func (e *shareEntry) fetchAt(ctx context.Context, i int) (Chunk, error) {
	e.mu.Lock()
	waited := false
	for {
		if i < len(e.chunks) {
			chunk := e.chunks[i]
			e.mu.Unlock()
			event := "share-memo-hit"
			if waited {
				event = "share-dedup-join"
				e.share.dedupHits.Add(1)
				e.share.mDedup.Add(1)
			} else {
				e.share.memoHits.Add(1)
				e.share.mMemo.Add(1)
			}
			if sc := obs.ScopeFrom(ctx); sc.On() {
				sc.Event(event, obs.KI("chunk", int64(i+1)))
			}
			return chunk, nil
		}
		if e.done {
			e.mu.Unlock()
			return Chunk{}, ErrExhausted
		}
		if e.fetching {
			// Another caller is extending the prefix: wait for its flight
			// and re-check. Only a successful flight is accepted; a failed
			// one makes this caller lead its own attempt, so errors stay
			// attributed to the run whose wire call raised them.
			waited = true
			flight := e.flight
			e.mu.Unlock()
			select {
			case <-flight:
			case <-ctx.Done():
				return Chunk{}, ctx.Err()
			}
			e.mu.Lock()
			continue
		}
		// Lead the flight for the next chunk.
		e.fetching = true
		e.flight = make(chan struct{})
		flight := e.flight
		chunk, err := e.extend(ctx)
		e.fetching = false
		close(flight)
		if err != nil {
			if err == ErrExhausted {
				continue // done is set; the loop returns ErrExhausted
			}
			e.mu.Unlock()
			return Chunk{}, err
		}
		if i < len(e.chunks) {
			// The led fetch produced this caller's chunk; it was counted
			// as a wire fetch, not as a hit.
			chunk = e.chunks[i]
			e.mu.Unlock()
			return chunk, nil
		}
	}
}

// extend performs one wire fetch, appending the chunk to the prefix (or
// marking the stream done). Called with e.mu held; the lock is released
// for the wire call itself so concurrent callers can line up on the
// flight instead of the mutex.
func (e *shareEntry) extend(ctx context.Context) (Chunk, error) {
	if e.upstream == nil {
		e.mu.Unlock()
		inv, err := e.share.inner.Invoke(ctx, e.input)
		e.mu.Lock()
		if err != nil {
			return Chunk{}, err
		}
		e.share.wireInvokes.Add(1)
		e.upstream = inv
	}
	up := e.upstream
	e.mu.Unlock()
	chunk, err := up.Fetch(ctx)
	e.mu.Lock()
	chunked := e.share.inner.Stats().Chunked()
	if err == ErrExhausted || (err == nil && len(chunk.Tuples) == 0 && chunked) {
		e.done = true
		return Chunk{}, ErrExhausted
	}
	if err != nil {
		return Chunk{}, err
	}
	e.share.wireFetches.Add(1)
	e.share.mWire.Add(1)
	e.chunks = append(e.chunks, chunk)
	if !chunked {
		e.done = true
	}
	return chunk, nil
}

// shareInvocation is one caller's cursor over a shared entry.
type shareInvocation struct {
	entry *shareEntry
	next  int
}

// Fetch implements Invocation.
func (si *shareInvocation) Fetch(ctx context.Context) (Chunk, error) {
	select {
	case <-ctx.Done():
		return Chunk{}, ctx.Err()
	default:
	}
	chunk, err := si.entry.fetchAt(ctx, si.next)
	if err != nil {
		return Chunk{}, err
	}
	si.next++
	return chunk, nil
}
