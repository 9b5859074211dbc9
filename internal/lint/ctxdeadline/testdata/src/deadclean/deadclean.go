// Package deadclean is the negative corpus for ctxdeadline: every sink
// call here either provably carries a deadline or has provenance the
// intraprocedural analysis cannot see (and so must not flag).
package deadclean

import (
	"context"
	"net/http"
	"time"

	"seco/internal/service"
)

type engine struct{}

func (engine) Execute(ctx context.Context, k int) error { return nil }

// Close takes a context but is not a deadline-propagation sink.
func (engine) Close(ctx context.Context) error { return nil }

type prepared struct{}

func (prepared) Run(ctx context.Context, k int) error { return nil }

type invoker struct{}

func (invoker) Invoke(ctx context.Context, in map[string]string) error { return nil }
func (invoker) Fetch(ctx context.Context, n int) ([]string, error)     { return nil, nil }

type key struct{}

// handler is the sanctioned shape: the admitted budget becomes a context
// deadline before anything reaches the engine.
func handler(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 50*time.Millisecond)
	defer cancel()
	var e engine
	e.Execute(ctx, 10)
	var p prepared
	p.Run(ctx, 10)

	vctx := context.WithValue(ctx, key{}, "v")
	var inv invoker
	inv.Invoke(vctx, nil)

	bctx := service.WithBudget(vctx, func() error { return nil })
	inv.Fetch(bctx, 1)
}

// withDeadline uses an absolute deadline instead of a timeout.
func withDeadline(inv invoker) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(1, 0))
	defer cancel()
	inv.Invoke(ctx, nil)
}

// parameter provenance is unknown — the caller may have attached a
// deadline — so it is never flagged.
func helper(ctx context.Context, inv invoker) {
	inv.Fetch(ctx, 1)
}

// rebound joins a bare definition with a deadline-carrying one: the
// variable is not provably deadline-less on every path.
func rebound(e engine, attach bool) {
	ctx := context.Background()
	if attach {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Second)
		defer cancel()
	}
	e.Execute(ctx, 1)
}

// nonSink calls may use bare contexts freely.
func nonSink(e engine) {
	e.Close(context.Background())
}
