package engine

import (
	"strconv"

	"seco/internal/fidelity"
	"seco/internal/obs"
)

// assessFidelity assembles the per-node actuals of a finished execution
// and scores them against the plan's annotations. It must run after the
// driver's cancel + wg.Wait (the counters are quiescent then) and
// returns nil unless RunOptions.Fidelity was set. Beside building the
// report it publishes the seco.fidelity.* metrics into the engine
// registry and — when the run is traced — emits one "fidelity" event on
// every node's lane, so the Chrome export shows est-vs-act inline with
// the node's call spans.
func (ex *executor) assessFidelity(g *graph) *fidelity.Report {
	if !ex.run.Fidelity {
		return nil
	}
	acts := make([]fidelity.Actuals, len(ex.nodes))
	for i := range ex.nodes {
		pn := &ex.nodes[i]
		a := fidelity.Actuals{Node: pn.id, Kind: pn.kind}
		a.TuplesOut = float64(g.emitted[i].Load())
		for _, in := range pn.inputs {
			a.TuplesIn += float64(g.emitted[in].Load())
		}
		a.Fetches = float64(g.depth[i].Load())
		a.Candidates = float64(g.fid.Value(pn.id))
		acts[i] = a
	}
	rep := fidelity.Assess(ex.ann, acts, ex.run.DriftThreshold)
	rep.Publish(ex.engine.metrics)
	if tr := ex.run.Trace; tr != nil {
		// Report rows are sorted by node ID, so the event order — and with
		// it the virtual-clock trace bytes — is deterministic.
		for _, nf := range rep.Nodes {
			tr.Scope(nf.Node).Event("fidelity",
				obs.KV("est_out", fidelity.Fnum(nf.EstOut)),
				obs.KV("act_out", fidelity.Fnum(nf.ActOut)),
				obs.KV("q", fidelity.Fnum(nf.Q)),
				obs.KV("drift", strconv.FormatBool(nf.Drift)))
		}
	}
	return rep
}
