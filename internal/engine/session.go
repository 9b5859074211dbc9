package engine

import (
	"context"
	"strings"

	"seco/internal/plan"
	"seco/internal/types"
)

// Session implements the liquid-query interaction of Section 3.2: a user
// receives the first K combinations and can repeatedly ask for "more
// results of the same query", which continues the plan execution by
// increasing the fetching factors of the chunked services and returning
// only combinations not seen before.
//
// Each round re-executes the plan from the start under the larger
// factors; on an engine built with Config.Share, the chunks earlier
// rounds fetched replay from the share layer's memo, so a round reaches
// the wire only for chunks no earlier round fetched.
type Session struct {
	engine  *Engine
	base    *plan.Plan
	opts    Options
	fetches map[string]int
	seen    map[string]bool
}

// NewSession prepares a resumable execution of the plan with the given
// initial fetching factors (nil = the factors of the plan's first
// annotation, i.e. 1 per chunked service). Every option applies to each
// round: a Budget bounds every round separately.
func NewSession(e *Engine, p *plan.Plan, fetches map[string]int, opts Options) *Session {
	f := map[string]int{}
	for k, v := range fetches {
		f[k] = v
	}
	return &Session{engine: e, base: p, opts: opts, fetches: f, seen: map[string]bool{}}
}

// Next executes (or continues) the query and returns the next batch of at
// most Options.TargetK new combinations in ranking order. Each call after
// the first doubles the fetching factors of every chunked service before
// re-executing, so deeper regions of the search space are explored. An
// empty batch means the services are exhausted — or, under
// Options.Degrade, that the round certified nothing new: a degraded round
// contributes only its certified prefix, since the rest is not provably
// in rank position, and leaves that rest unseen for a later round.
func (s *Session) Next(ctx context.Context) ([]*types.Combination, error) {
	ann, err := plan.Annotate(s.base, s.fetches)
	if err != nil {
		return nil, err
	}
	// ann holds its own copy of the factors: deepen them for the next call.
	for _, id := range s.base.NodeIDs() {
		n, _ := s.base.Node(id)
		if n.Kind == plan.KindService && n.Stats.Chunked() {
			s.fetches[id] = max(s.fetches[id], 1) * 2
		}
	}
	runOpts := s.opts
	// Rank and truncate here, after dedup — but let the streaming engine
	// stop early: the previously seen combinations all reappear under the
	// deeper fetch factors, so the guaranteed top (seen+K) contains at
	// least K unseen ones (any seen combination ranked below the cut only
	// makes room for more fresh ones).
	runOpts.TargetK = 0
	if s.opts.TargetK > 0 && !s.opts.Materialize {
		runOpts.TargetK = s.opts.TargetK + len(s.seen)
	}
	run, err := s.engine.Execute(ctx, ann, runOpts)
	if err != nil {
		return nil, err
	}
	ranked := run.Combinations
	if d := run.Degraded; d != nil {
		ranked = ranked[:d.CertifiedK]
	}
	var fresh []*types.Combination
	for _, c := range ranked {
		key := comboKey(c)
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		fresh = append(fresh, c)
	}
	if s.opts.TargetK > 0 && len(fresh) > s.opts.TargetK {
		fresh = fresh[:s.opts.TargetK]
	}
	return fresh, nil
}

// comboKey is a stable identity for deduplication across re-executions.
func comboKey(c *types.Combination) string {
	var b strings.Builder
	for _, a := range c.Aliases() {
		b.WriteString(a)
		b.WriteByte('=')
		b.WriteString(c.Components[a].String())
		b.WriteByte(';')
	}
	return b.String()
}
