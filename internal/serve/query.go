package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"seco/internal/admission"
	"seco/internal/engine"
	"seco/internal/types"
)

// queryCombination is one ranked result row.
type queryCombination struct {
	Score float64 `json:"score"`
	Combo string  `json:"combo"`
}

// queryDegradation is the wire-safe form of engine.Degradation: the
// engine reports an exhausted stop bound as -Inf, which JSON cannot
// encode, so the bound crosses the wire as a pointer that is absent
// when nothing unseen remains.
type queryDegradation struct {
	Reason string   `json:"reason"`
	Failed []string `json:"failed,omitempty"`
	Cause  string   `json:"cause,omitempty"`
	// Bound is the streaming score bound at the stop point; nil when no
	// unseen combination remains (the partial result is exact).
	Bound      *float64 `json:"bound,omitempty"`
	CertifiedK int      `json:"certified_k"`
}

func wireDegradation(d *engine.Degradation) *queryDegradation {
	if d == nil {
		return nil
	}
	out := &queryDegradation{
		Reason:     string(d.Reason),
		Failed:     d.Failed,
		Cause:      d.Cause,
		CertifiedK: d.CertifiedK,
	}
	if !math.IsInf(d.Bound, 0) {
		b := d.Bound
		out.Bound = &b
	}
	return out
}

// queryResponse is the POST /query success payload. The handler writes
// it through respBuf.appendResponse, in the bytes encoding/json would
// write for it, with Combinations rendered from the run's results.
type queryResponse struct {
	// Tenant and Tier echo the admission decision ("admit" or "degrade";
	// rejections never reach execution).
	Tenant string `json:"tenant"`
	Tier   string `json:"tier"`
	// Reason is the admission reason ("ok", "occupancy", "queued").
	Reason string `json:"reason"`
	// BudgetMS is the execution budget the query ran under.
	BudgetMS float64 `json:"budget_ms"`
	// ElapsedMS is the run time on the engine clock (simulated under a
	// virtual clock).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Halted reports top-k early termination.
	Halted bool `json:"halted"`
	// Degraded is non-nil when the run returned a certified partial.
	Degraded *queryDegradation `json:"degraded,omitempty"`
	// CertifiedK is the provably-correct result prefix: all of
	// Combinations for a complete run, Degraded.CertifiedK for a partial.
	CertifiedK   int                `json:"certified_k"`
	Combinations []queryCombination `json:"combinations"`
}

// queryRejection is the POST /query 429 payload.
type queryRejection struct {
	Error        string  `json:"error"`
	Reason       string  `json:"reason"`
	RetryAfterMS float64 `json:"retry_after_ms"`
}

// budgetGrace pads the HTTP context deadline past the execution budget,
// so the engine's own budget machinery — which degrades gracefully into
// a certified partial — always fires before the raw context cancel,
// which would surface as an opaque execution error.
const budgetGrace = 100 * time.Millisecond

// maxBodyBytes bounds the POST /query body; larger bodies get 413.
const maxBodyBytes = 1 << 20

// checkOverride refuses an inputs override that could only fail the run:
// a NULL, which binds nothing, or a value whose class differs from the
// scenario binding it replaces, which no predicate on that input can
// compare.
func checkOverride(name string, v types.Value, scenario map[string]types.Value) error {
	if v.IsNull() {
		return fmt.Errorf("bad input %q: NULL binds nothing", name)
	}
	if was, ok := scenario[name]; ok && was.Class() != v.Class() {
		return fmt.Errorf("bad input %q: %s (%s) does not compare with the scenario's %s (%s)", name, v, v.Kind(), was, was.Kind())
	}
	return nil
}

// handleQuery is POST /query: admission control, then a budgeted
// degradable execution on the cached engine for the requested
// (query, K) pair.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The scratch holds the decoded body and the map the overrides are
	// bound through, so it goes back only once the run has returned.
	sc := getQueryScratch()
	defer sc.put()
	if r.ContentLength != 0 {
		if err := sc.read(w, r); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request body: "+err.Error(), status)
			return
		}
	}
	req := &sc.req
	tenant := string(req.tenant)
	if tenant == "" {
		tenant = r.Header.Get("X-Seco-Tenant")
	}
	// Clamp before converting: a deadline past time.Duration's range would
	// wrap negative, which admission reads as "none given".
	ms := min(max(req.deadlineMS, 0), float64(math.MaxInt64/time.Millisecond))
	deadline := time.Duration(ms * float64(time.Millisecond))
	// X-Seco-Queued-Ns carries the ingress lag (admission-time minus
	// arrival-time on the shared clock); a fronting proxy or the loadgen
	// driver stamps it so admission sees deadline already spent queueing.
	var queued time.Duration
	if h := r.Header.Get("X-Seco-Queued-Ns"); h != "" {
		ns, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			http.Error(w, "bad X-Seco-Queued-Ns: "+err.Error(), http.StatusBadRequest)
			return
		}
		queued = time.Duration(ns)
	}

	dec, release := s.adm.Admit(admission.Request{Tenant: tenant, Deadline: deadline, Queued: queued})
	defer release()
	if dec.Tier == admission.TierReject {
		s.inst.rejected.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(queryRejection{
			Error:        "rejected: " + dec.Reason,
			Reason:       dec.Reason,
			RetryAfterMS: float64(dec.RetryAfter) / float64(time.Millisecond),
		})
		return
	}

	// The canonical text is the common case: comparing costs no copy.
	text := s.defaultText
	if q := req.query; len(q) > 0 && string(q) != text {
		text = string(q)
	}
	k := req.k
	if k <= 0 {
		k = s.cfg.K
	}
	entry, err := s.entryFor(text, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	inputs := s.inputs
	if len(req.inputs) > 0 {
		if inputs, err = sc.bind(s.inputs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	budget := dec.Budget
	if max := s.cfg.MaxBudget; max > 0 && budget > max {
		budget = max
	}
	// The degraded tier runs under a shed budget; a plain admit's budget
	// is the client's own deadline. The distinction surfaces in
	// Run.Degraded.Reason when the budget expires mid-run.
	reason := engine.DegradeDeadline
	if dec.Tier == admission.TierDegrade {
		reason = engine.DegradeShed
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget+budgetGrace)
	defer cancel()
	run, err := entry.prep.Run(ctx, engine.RunOptions{
		Inputs:       inputs,
		Budget:       budget,
		BudgetReason: reason,
	})
	if err != nil {
		s.inst.http500.Add(1)
		http.Error(w, "execution failed: "+err.Error(), http.StatusInternalServerError)
		return
	}

	s.inst.queries.Add(1)
	elapsedMS := float64(run.Elapsed) / float64(time.Millisecond)
	s.inst.latencyMS.Observe(elapsedMS)
	resp := queryResponse{
		Tenant:     tenant,
		Tier:       dec.Tier.String(),
		Reason:     dec.Reason,
		BudgetMS:   float64(budget) / float64(time.Millisecond),
		ElapsedMS:  elapsedMS,
		Halted:     run.Halted,
		Degraded:   wireDegradation(run.Degraded),
		CertifiedK: len(run.Combinations),
	}
	if run.Degraded != nil {
		s.inst.degraded.Add(1)
		resp.CertifiedK = run.Degraded.CertifiedK
	}
	buf := getRespBuf()
	defer buf.put()
	body, err := buf.appendResponse(&resp, run.Combinations)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// net/http never writes into a header's value slice (Set and Add
	// replace or append, and WriteHeader clones the map), so one shared
	// slice serves every response.
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
}

// jsonContentType is the /query success Content-Type header value.
var jsonContentType = []string{"application/json"}
