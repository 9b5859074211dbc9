package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"seco/internal/mart"
	"seco/internal/types"
)

// ErrExhausted is returned by Invocation.Fetch when the service has no
// further chunks for the invocation.
var ErrExhausted = errors.New("service: result list exhausted")

// Binding binds one input attribute path to a value.
type Binding struct {
	Path  string
	Value types.Value
}

// Input binds the input attribute paths of a service interface to values:
// one Binding per path, sorted by path. Interfaces list their input paths
// sorted too (mart.Interface.InputPaths), so a service checks and matches
// a binding by one merge walk, with no hashing.
//
// A Service only reads its input, and must not retain in after Invoke
// returns: the invocation it hands back may keep values, never the slice
// (Share, which needs the binding later, copies it). So a caller may
// share one Input across invocations, and refill one buffer for the next.
type Input []Binding

// NewInput builds the input binding the map describes.
func NewInput(m map[string]types.Value) Input {
	in := make(Input, 0, len(m))
	for p, v := range m {
		in = append(in, Binding{Path: p, Value: v})
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Path < in[j].Path })
	return in
}

// Clone returns a copy of the input binding.
func (in Input) Clone() Input {
	c := make(Input, len(in))
	copy(c, in)
	return c
}

// Get returns the value bound to path, and whether the path is bound.
func (in Input) Get(path string) (types.Value, bool) {
	for _, b := range in {
		if b.Path == path {
			return b.Value, true
		}
	}
	return types.Null, false
}

// Chunk is one unit of results returned by a single request-response.
// Search services return chunks in decreasing ranking order; tuple scores
// within a chunk are non-increasing as well.
type Chunk struct {
	// Index is the 0-based sequence number of the chunk within its
	// invocation (the chapter's "i-th call").
	Index int
	// Tuples are the chunk's results. They are read-only: the slice may
	// share the service's own storage (a Table serves slices of its
	// frozen rows), so a caller that needs to grow or reorder it copies
	// it first.
	Tuples []*types.Tuple
}

// Stats captures the published statistics of a service, which are the only
// information the optimizer may use (Section 3.2: estimates descend from
// static properties under independence and uniform-distribution
// assumptions).
type Stats struct {
	// AvgCardinality is the expected number of output tuples per input
	// tuple for an exact service. A value below 1 makes the service
	// selective "per se" (Section 3.2).
	AvgCardinality float64
	// ChunkSize is the number of tuples per chunk for chunked services;
	// 0 means the service returns all tuples in one response.
	ChunkSize int
	// Latency is the expected elapsed time of one request-response.
	Latency time.Duration
	// CostPerCall is the monetary charge of one request-response, used by
	// the sum cost metric.
	CostPerCall float64
	// Scoring describes the service's score curve.
	Scoring Scoring
}

// Chunked reports whether the service returns results chunk by chunk.
func (s Stats) Chunked() bool { return s.ChunkSize > 0 }

// Selective reports whether the service is selective per se, i.e. produces
// fewer than one output tuple per input tuple on average.
func (s Stats) Selective() bool { return s.AvgCardinality < 1 }

// Validate checks the statistics for consistency.
func (s Stats) Validate() error {
	if s.AvgCardinality < 0 {
		return fmt.Errorf("service: negative average cardinality %v", s.AvgCardinality)
	}
	if s.ChunkSize < 0 {
		return fmt.Errorf("service: negative chunk size %d", s.ChunkSize)
	}
	if s.Latency < 0 {
		return fmt.Errorf("service: negative latency %v", s.Latency)
	}
	if s.CostPerCall < 0 {
		return fmt.Errorf("service: negative per-call cost %v", s.CostPerCall)
	}
	return s.Scoring.Validate()
}

// Invocation is a live request to a service for one input binding. Fetch
// performs one request-response and returns the next chunk, or ErrExhausted
// when the ranked list is finished. Implementations need not be safe for
// concurrent Fetch calls on the same invocation; the engine serializes them.
type Invocation interface {
	Fetch(ctx context.Context) (Chunk, error)
}

// Service is a callable information source bound to a service interface.
//
// An invocation answers only with tuples that satisfy each input binding
// under the comparator of the query predicate covering it: equality for an
// input piped from another service's output. The engine relies on it and
// does not re-check a pipe's atomic equalities per tuple. Middleware
// (Counter, Share, Policy, Hedge, fault injection) passes tuples
// through unaltered.
type Service interface {
	// Interface returns the design-time interface the service implements.
	Interface() *mart.Interface
	// Stats returns the published statistics.
	Stats() Stats
	// Invoke starts a new invocation for the given input binding. Missing
	// bindings for input-adorned paths are an error: access limitations
	// are mandatory (Section 2.3). The service must not retain in after
	// Invoke returns (see Input).
	Invoke(ctx context.Context, in Input) (Invocation, error)
}

// CheckInput verifies that in binds every input path of si, returning a
// descriptive error otherwise. Service implementations call it from Invoke.
func CheckInput(si *mart.Interface, in Input) error {
	j := 0
	for _, p := range si.InputPaths() {
		for j < len(in) && in[j].Path < p {
			j++
		}
		if j == len(in) || in[j].Path != p || in[j].Value.IsNull() {
			return unboundError(si, p)
		}
		j++
	}
	return nil
}

func unboundError(si *mart.Interface, path string) error {
	return fmt.Errorf("service %s: input attribute %q not bound", si.Name, path)
}

// FuncInvocation adapts a fetch closure to the Invocation interface.
type FuncInvocation func(ctx context.Context) (Chunk, error)

// Fetch implements Invocation.
func (f FuncInvocation) Fetch(ctx context.Context) (Chunk, error) { return f(ctx) }
