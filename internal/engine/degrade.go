package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"seco/internal/service"
	"seco/internal/types"
)

// This file implements graceful degradation: when a service fails
// permanently (or a circuit stays open, or retries are exhausted) or the
// execution budget expires mid-run, the streaming executor stops pulling
// and returns the combinations produced so far as a partial result
// instead of an error. The Run's Degraded report names the failure, the
// fetch depth each service node reached, and — using the same score
// bounds that drive top-k early termination — how many of the returned
// results are provably identical to the fault-free run's top-k, versus
// merely best-effort.

// ErrBudget reports that the execution budget (Options.Budget) was spent
// before the run completed. It is surfaced as the run error when Degrade
// is off, and recorded in Run.Degraded when Degrade is on.
var ErrBudget = errors.New("engine: execution budget exhausted")

// DegradeReason classifies what ended a degraded run.
type DegradeReason string

const (
	// DegradeServiceFailure: a service failed past the resilience
	// middleware (permanent fault, open circuit, or exhausted retries).
	DegradeServiceFailure DegradeReason = "service-failure"
	// DegradeBudget: the execution budget expired mid-run.
	DegradeBudget DegradeReason = "budget-exhausted"
	// DegradeDeadline: the budget was derived from a request deadline and
	// the deadline expired mid-run (Options.BudgetReason).
	DegradeDeadline DegradeReason = "deadline"
	// DegradeShed: the budget was reduced by admission-control load
	// shedding and expired mid-run (Options.BudgetReason).
	DegradeShed DegradeReason = "load-shed"
)

// Degradation reports why and how a run returned a partial result.
type Degradation struct {
	// Reason classifies the trigger.
	Reason DegradeReason
	// Failed names the service aliases whose failure ended the run
	// (empty for pure budget expiry).
	Failed []string
	// Cause is the text of the triggering error.
	Cause string
	// FetchDepth records, per service plan-node ID, how many chunks the
	// node had fetched when execution stopped — the depth the search
	// reached into each ranked result list.
	FetchDepth map[string]int
	// Bound is the streaming score bound at the stop point: no unseen
	// combination can score above it.
	Bound float64
	// CertifiedK is the length of the leading prefix of Combinations
	// that is provably identical to the fault-free run's ranking: every
	// certified combination outscores Bound, so nothing the run failed
	// to see could displace or reorder it. Results beyond the prefix are
	// best-effort.
	CertifiedK int
}

// String summarizes the degradation for logs and reports.
func (d *Degradation) String() string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("degraded(%s failed=%v certified=%d bound=%.3f)",
		d.Reason, d.Failed, d.CertifiedK, d.Bound)
}

// aliasError attributes a failure to the plan alias whose service call
// raised it, so degradation reports can name the failed service.
type aliasError struct {
	alias string
	err   error
}

func (e *aliasError) Error() string { return fmt.Sprintf("service %q: %v", e.alias, e.err) }

func (e *aliasError) Unwrap() error { return e.err }

// withAlias wraps err with the alias unless it already carries one (the
// innermost attribution names the failing service, not a downstream node
// that merely propagated it).
func withAlias(alias string, err error) error {
	if err == nil {
		return nil
	}
	var ae *aliasError
	if errors.As(err, &ae) {
		return err
	}
	return &aliasError{alias: alias, err: err}
}

// budgetCheck returns the budget-expiry probe for a run, or nil when no
// budget is set. The probe reads the engine clock, so wall and virtual
// runs expire identically relative to their own time.
func (ex *executor) budgetCheck(start time.Time) func() error {
	if ex.run.Budget <= 0 {
		return nil
	}
	deadline := start.Add(ex.run.Budget)
	clock := ex.engine.clock
	return func() error {
		if clock.Now().Before(deadline) {
			return nil
		}
		return ErrBudget
	}
}

// classifyDegrade decides whether err ends the run as a degraded partial
// result. User cancellation is never degraded — the caller asked the run
// to stop, not the services.
func (ex *executor) classifyDegrade(ctx context.Context, err error) (*Degradation, bool) {
	if !ex.opts.Degrade || err == nil || ctx.Err() != nil {
		return nil, false
	}
	if errors.Is(err, ErrBudget) {
		reason := ex.run.BudgetReason
		if reason == "" {
			reason = DegradeBudget
		}
		return &Degradation{Reason: reason, Cause: err.Error()}, true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// A per-call deadline (derived from the remaining budget under a
		// wall clock) expired while the run itself is still live: degrade
		// as a deadline, not a service failure — the service was slow, the
		// budget ran out.
		d := &Degradation{Reason: DegradeDeadline, Cause: err.Error()}
		var ae *aliasError
		if errors.As(err, &ae) {
			d.Failed = []string{ae.alias}
		}
		return d, true
	}
	if errors.Is(err, service.ErrPermanent) || errors.Is(err, service.ErrOpen) ||
		errors.Is(err, service.ErrTransient) {
		d := &Degradation{Reason: DegradeServiceFailure, Cause: err.Error()}
		var ae *aliasError
		if errors.As(err, &ae) {
			d.Failed = []string{ae.alias}
		}
		return d, true
	}
	return nil, false
}

// certifiedPrefix counts the leading ranked combinations that provably
// belong to the true top-k in this exact order: each must strictly
// outscore the stop bound (no unseen combination can reach above it),
// and the guarantee requires the monotone ranking the bounds assume.
func certifiedPrefix(ranked []*types.Combination, bound float64, weights map[string]float64) int {
	if !nonNegative(weights) {
		return 0
	}
	if math.IsInf(bound, -1) {
		// Nothing unseen remains: the whole partial result is exact.
		return len(ranked)
	}
	k := 0
	for _, c := range ranked {
		if c.Score <= bound {
			break
		}
		k++
	}
	return k
}
