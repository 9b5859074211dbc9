// Package deadbox is the violation corpus for ctxdeadline: every sink
// call here passes a context that provably carries no deadline.
package deadbox

import (
	"context"
	"net/http"

	"seco/internal/service"
)

type engine struct{}

func (engine) Execute(ctx context.Context, k int) error { return nil }

type prepared struct{}

func (prepared) Run(ctx context.Context, k int) error { return nil }

type invoker struct{}

func (invoker) Invoke(ctx context.Context, in map[string]string) error { return nil }
func (invoker) Fetch(ctx context.Context, n int) ([]string, error)     { return nil, nil }

type key struct{}

func direct(e engine, inv invoker) {
	e.Execute(context.Background(), 10) // want "e\\.Execute called with a deadline-less context \\(context\\.Background\\)"
	inv.Invoke(context.TODO(), nil)     // want "inv\\.Invoke called with a deadline-less context \\(context\\.TODO\\)"
}

// handler passes the raw request context through: an http.Request
// context has no deadline unless the analysis-invisible server config
// sets one, so the handler must attach the admitted budget itself.
func handler(w http.ResponseWriter, r *http.Request) {
	var e engine
	e.Execute(r.Context(), 10) // want "e\\.Execute called with a deadline-less context \\(http\\.Request\\.Context\\)"

	ctx := r.Context()
	e.Execute(ctx, 10) // want "e\\.Execute called with a deadline-less context \\(http\\.Request\\.Context\\)"
}

// served runs a cached prepared plan: the same sink as Execute, reached
// without re-preparing.
func served(r *http.Request, p prepared) {
	p.Run(r.Context(), 10) // want "p\\.Run called with a deadline-less context \\(http\\.Request\\.Context\\)"
}

// derived traces bare roots through the deadline-preserving wrappers:
// cancellation, values and the service-layer budget hooks decorate a
// parent without giving it a deadline.
func derived(inv invoker) {
	cctx, cancel := context.WithCancel(context.TODO())
	defer cancel()
	inv.Invoke(cctx, nil) // want "inv\\.Invoke called with a deadline-less context \\(context\\.TODO\\)"

	vctx := context.WithValue(context.Background(), key{}, "v")
	if _, err := inv.Fetch(vctx, 1); err != nil { // want "inv\\.Fetch called with a deadline-less context \\(context\\.Background\\)"
		return
	}

	bctx := service.WithBudget(context.Background(), func() error { return nil })
	inv.Invoke(bctx, nil) // want "inv\\.Invoke called with a deadline-less context \\(context\\.Background\\)"
}

// closures are walked too: a goroutine reusing the handler's bare
// context is exactly how a shed request escapes its deadline.
func spawned(r *http.Request, e engine) {
	ctx := r.Context()
	go func() {
		e.Execute(ctx, 1) // want "e\\.Execute called with a deadline-less context \\(http\\.Request\\.Context\\)"
	}()
}
