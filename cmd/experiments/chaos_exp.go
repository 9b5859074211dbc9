package main

import (
	"context"
	"fmt"
	"io"

	"seco/internal/chaos"
)

// runE16 sweeps the movienight and conftravel scenarios under seeded
// fault schedules — transient rates with latency spikes, transient
// bursts, fail-forever outages, execution-budget expiries — with the
// call policy (jittered retries inside a circuit breaker) over the
// fault injector and reports, per schedule family, how the runs held
// up. Transient-only schedules must reproduce the fault-free top-k
// exactly; lossy schedules must degrade to a partial result whose
// certified prefix matches the fault-free ranking. Any invariant
// violation fails the experiment.
func runE16(w io.Writer) error {
	scenarios, err := chaos.Scenarios()
	if err != nil {
		return err
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	sum, err := chaos.Sweep(context.Background(), scenarios, func(aliases []string) []chaos.Schedule {
		return chaos.DefaultSchedules(aliases, seeds)
	})
	if err != nil {
		return err
	}

	type aggKey struct{ scenario, schedule string }
	type agg struct {
		cells, degraded, certified int
		injected, retries, spikes  int64
	}
	aggs := map[aggKey]*agg{}
	var order []aggKey
	for _, r := range sum.Results {
		k := aggKey{r.Scenario, r.Schedule}
		a, ok := aggs[k]
		if !ok {
			a = &agg{}
			aggs[k] = a
			order = append(order, k)
		}
		a.cells++
		a.injected += r.Injected
		a.retries += r.Retries
		a.spikes += r.Spikes
		if r.Degraded {
			a.degraded++
			a.certified += r.CertifiedK
		}
	}

	t := &table{header: []string{"scenario", "schedule", "cells", "injected", "retries", "spikes", "degraded", "certified"}}
	for _, k := range order {
		a := aggs[k]
		t.add(k.scenario, k.schedule, i0(a.cells), i0(int(a.injected)),
			i0(int(a.retries)), i0(int(a.spikes)), i0(a.degraded), i0(a.certified))
	}
	t.write(w)

	// Machine-readable companion to the table: every cell with its
	// degraded reason, failed aliases, certified prefix and per-alias
	// resilience stats (retries, breaker trips, injected faults).
	if err := writeArtifact(w, "chaos_cells.json", sum.Results); err != nil {
		return err
	}

	violations := sum.Violations()
	fmt.Fprintf(w, "\n  %d cells, %d injected faults, %d invariant violations\n",
		len(sum.Results), sum.TotalInjected(), len(violations))
	for _, v := range violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("chaos sweep: %d invariant violations", len(violations))
	}
	if sum.TotalInjected() == 0 {
		return fmt.Errorf("chaos sweep: no faults injected; sweep is vacuous")
	}
	return nil
}
