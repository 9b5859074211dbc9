// Package tracebox is the engine-side corpus for ctxdeadline: an operator
// reaches the service layer through contexts carrying its trace scope, so
// a fresh context severs the operator's trace lane as well as the
// deadline, on the spot or in a spawned look-ahead.
package tracebox

import "context"

// invoker mimics the service layer's entry points: the context is where
// the operator's trace scope rides.
type invoker struct{}

func (invoker) Invoke(ctx context.Context, in map[string]string) error { return nil }
func (invoker) Fetch(ctx context.Context, n int) ([]string, error)     { return nil, nil }

// Close takes a context too, but is not a traced entry point.
func (invoker) Close(ctx context.Context) error { return nil }

// Invoke without a leading context is out of the analyzer's shape.
type legacy struct{}

func (legacy) Invoke(name string) error { return nil }

func bad(inv invoker) {
	inv.Invoke(context.Background(), nil) // want "inv\\.Invoke called with a deadline-less context \\(context\\.Background\\)"
	inv.Fetch(context.TODO(), 1)          // want "inv\\.Fetch called with a deadline-less context \\(context\\.TODO\\)"
	go func() {
		inv.Invoke(context.Background(), nil) // want "inv\\.Invoke called with a deadline-less context \\(context\\.Background\\)"
	}()
}

func ok(ctx context.Context, inv invoker, lg legacy) error {
	if err := inv.Invoke(ctx, nil); err != nil { // the request context carries the scope
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if _, err := inv.Fetch(cctx, 1); err != nil { // derived contexts keep the scope
		return err
	}
	inv.Close(context.Background()) // not a traced entry point
	return lg.Invoke("x")           // no context parameter at all
}

// root is the one sanctioned place a background context appears: before
// any operator exists. It does not call Invoke/Fetch directly.
func root() context.Context { return context.Background() }
