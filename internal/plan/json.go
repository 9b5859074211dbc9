package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/types"
)

// This file gives plans a stable JSON representation so optimized plans
// can be stored, shipped to an execution tier, and reloaded against a
// registry. Interfaces are serialized by name and re-resolved on load;
// everything else (statistics, bindings, strategies, predicates) is
// self-contained.

type jsonPlan struct {
	K     int         `json:"k"`
	Nodes []jsonNode  `json:"nodes"`
	Arcs  [][2]string `json:"arcs"`
}

type jsonNode struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`

	Alias           string        `json:"alias,omitempty"`
	Interface       string        `json:"interface,omitempty"`
	Stats           *jsonStats    `json:"stats,omitempty"`
	Bindings        []jsonBinding `json:"bindings,omitempty"`
	PipeSelectivity float64       `json:"pipeSelectivity,omitempty"`
	Limit           int           `json:"limit,omitempty"`

	Strategy        *jsonStrategy `json:"strategy,omitempty"`
	JoinSelectivity float64       `json:"joinSelectivity,omitempty"`
	JoinPreds       []jsonPred    `json:"joinPreds,omitempty"`

	Selections  []jsonPred `json:"selections,omitempty"`
	Selectivity float64    `json:"selectivity,omitempty"`
}

type jsonStats struct {
	AvgCardinality float64 `json:"avgCardinality"`
	ChunkSize      int     `json:"chunkSize"`
	LatencyMS      float64 `json:"latencyMs"`
	CostPerCall    float64 `json:"costPerCall"`
	Scoring        string  `json:"scoring"`
	ScoringN       int     `json:"scoringN,omitempty"`
	ScoringH       int     `json:"scoringH,omitempty"`
	ScoringHigh    float64 `json:"scoringHigh,omitempty"`
	ScoringLow     float64 `json:"scoringLow,omitempty"`
	ScoringRatio   float64 `json:"scoringRatio,omitempty"`
}

type jsonBinding struct {
	Path  string `json:"path"`
	Kind  string `json:"kind"` // const | input | join
	Op    string `json:"op"`
	Const string `json:"const,omitempty"`
	Input string `json:"input,omitempty"`
	From  string `json:"from,omitempty"` // Alias.Path
}

type jsonStrategy struct {
	Invocation     string `json:"invocation"`
	Completion     string `json:"completion"`
	H              int    `json:"h,omitempty"`
	RatioX         int    `json:"ratioX,omitempty"`
	RatioY         int    `json:"ratioY,omitempty"`
	FlushOnExhaust bool   `json:"flushOnExhaust,omitempty"`
}

type jsonPred struct {
	LeftAlias string `json:"leftAlias"`
	LeftPath  string `json:"leftPath"`
	Op        string `json:"op"`
	TermKind  string `json:"termKind"` // const | input | path
	Const     string `json:"const,omitempty"`
	Input     string `json:"input,omitempty"`
	PathAlias string `json:"pathAlias,omitempty"`
	PathPath  string `json:"pathPath,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p *Plan) MarshalJSON() ([]byte, error) {
	jp := jsonPlan{K: p.K}
	for _, id := range p.NodeIDs() {
		n := p.nodes[id]
		jn := jsonNode{ID: n.ID, Kind: n.Kind.String()}
		switch n.Kind {
		case KindService:
			jn.Alias = n.Alias
			if n.Interface != nil {
				jn.Interface = n.Interface.Name
			}
			jn.Stats = encodeStats(n.Stats)
			for _, b := range n.Bindings {
				jn.Bindings = append(jn.Bindings, encodeBinding(b))
			}
			jn.PipeSelectivity = n.PipeSelectivity
			jn.Limit = n.Limit
			jn.JoinPreds = encodePreds(n.JoinPreds)
		case KindJoin:
			jn.Strategy = &jsonStrategy{
				Invocation:     n.Strategy.Invocation.String(),
				Completion:     n.Strategy.Completion.String(),
				H:              n.Strategy.H,
				RatioX:         n.Strategy.RatioX,
				RatioY:         n.Strategy.RatioY,
				FlushOnExhaust: n.Strategy.FlushOnExhaust,
			}
			jn.JoinSelectivity = n.JoinSelectivity
			jn.JoinPreds = encodePreds(n.JoinPreds)
		case KindMultiJoin:
			jn.JoinSelectivity = n.JoinSelectivity
			jn.JoinPreds = encodePreds(n.JoinPreds)
		case KindSelection:
			jn.Selections = encodePreds(n.Selections)
			jn.Selectivity = n.Selectivity
		}
		jp.Nodes = append(jp.Nodes, jn)
	}
	for _, from := range p.NodeIDs() {
		for _, to := range p.Successors(from) {
			jp.Arcs = append(jp.Arcs, [2]string{from, to})
		}
	}
	return json.Marshal(jp)
}

// UnmarshalPlan decodes a plan, resolving interface names against reg.
func UnmarshalPlan(data []byte, reg *mart.Registry) (*Plan, error) {
	var jp jsonPlan
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("plan: decoding: %w", err)
	}
	p := New(jp.K)
	for _, jn := range jp.Nodes {
		n := &Node{ID: jn.ID}
		switch jn.Kind {
		case "input":
			n.Kind = KindInput
		case "output":
			n.Kind = KindOutput
		case "service":
			n.Kind = KindService
			n.Alias = jn.Alias
			si, ok := reg.Interface(jn.Interface)
			if !ok {
				return nil, fmt.Errorf("plan: unknown interface %q in node %s", jn.Interface, jn.ID)
			}
			n.Interface = si
			if jn.Stats != nil {
				st, err := decodeStats(*jn.Stats)
				if err != nil {
					return nil, err
				}
				n.Stats = st
			}
			for _, jb := range jn.Bindings {
				b, err := decodeBinding(jb)
				if err != nil {
					return nil, err
				}
				n.Bindings = append(n.Bindings, b)
			}
			n.PipeSelectivity = jn.PipeSelectivity
			n.Limit = jn.Limit
			preds, err := decodePreds(jn.JoinPreds)
			if err != nil {
				return nil, err
			}
			n.JoinPreds = preds
		case "join":
			n.Kind = KindJoin
			if jn.Strategy == nil {
				return nil, fmt.Errorf("plan: join node %s without strategy", jn.ID)
			}
			s, err := decodeStrategy(*jn.Strategy)
			if err != nil {
				return nil, err
			}
			n.Strategy = s
			n.JoinSelectivity = jn.JoinSelectivity
			preds, err := decodePreds(jn.JoinPreds)
			if err != nil {
				return nil, err
			}
			n.JoinPreds = preds
		case "multijoin":
			n.Kind = KindMultiJoin
			n.JoinSelectivity = jn.JoinSelectivity
			preds, err := decodePreds(jn.JoinPreds)
			if err != nil {
				return nil, err
			}
			n.JoinPreds = preds
		case "selection":
			n.Kind = KindSelection
			preds, err := decodePreds(jn.Selections)
			if err != nil {
				return nil, err
			}
			n.Selections = preds
			n.Selectivity = jn.Selectivity
		default:
			return nil, fmt.Errorf("plan: unknown node kind %q", jn.Kind)
		}
		if err := p.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, arc := range jp.Arcs {
		if err := p.Connect(arc[0], arc[1]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func encodeStats(st service.Stats) *jsonStats {
	return &jsonStats{
		AvgCardinality: st.AvgCardinality,
		ChunkSize:      st.ChunkSize,
		LatencyMS:      float64(st.Latency) / float64(time.Millisecond),
		CostPerCall:    st.CostPerCall,
		Scoring:        st.Scoring.Kind.String(),
		ScoringN:       st.Scoring.N,
		ScoringH:       st.Scoring.H,
		ScoringHigh:    st.Scoring.High,
		ScoringLow:     st.Scoring.Low,
		ScoringRatio:   st.Scoring.Ratio,
	}
}

func decodeStats(js jsonStats) (service.Stats, error) {
	var kind service.ScoringKind
	switch js.Scoring {
	case "constant":
		kind = service.ScoringConstant
	case "step":
		kind = service.ScoringStep
	case "linear":
		kind = service.ScoringLinear
	case "square":
		kind = service.ScoringSquare
	case "geometric":
		kind = service.ScoringGeometric
	default:
		return service.Stats{}, fmt.Errorf("plan: unknown scoring kind %q", js.Scoring)
	}
	st := service.Stats{
		AvgCardinality: js.AvgCardinality,
		ChunkSize:      js.ChunkSize,
		Latency:        time.Duration(js.LatencyMS * float64(time.Millisecond)),
		CostPerCall:    js.CostPerCall,
		Scoring: service.Scoring{
			Kind: kind, N: js.ScoringN, H: js.ScoringH,
			High: js.ScoringHigh, Low: js.ScoringLow, Ratio: js.ScoringRatio,
		},
	}
	return st, st.Validate()
}

func encodeBinding(b query.InputBinding) jsonBinding {
	jb := jsonBinding{Path: b.Path, Op: b.Source.Op.String()}
	switch b.Source.Kind {
	case query.BindConst:
		jb.Kind = "const"
		jb.Const = b.Source.Const.String()
	case query.BindInput:
		jb.Kind = "input"
		jb.Input = b.Source.Input
	case query.BindJoin:
		jb.Kind = "join"
		jb.From = b.Source.From.Alias + "." + b.Source.From.Path
	}
	return jb
}

func decodeBinding(jb jsonBinding) (query.InputBinding, error) {
	op, err := types.ParseOp(jb.Op)
	if err != nil {
		return query.InputBinding{}, err
	}
	b := query.InputBinding{Path: jb.Path, Source: query.BindingSource{Op: op}}
	switch jb.Kind {
	case "const":
		b.Source.Kind = query.BindConst
		b.Source.Const = decodeConst(jb.Const)
	case "input":
		b.Source.Kind = query.BindInput
		b.Source.Input = jb.Input
	case "join":
		b.Source.Kind = query.BindJoin
		alias, path, ok := cutFirst(jb.From)
		if !ok {
			return query.InputBinding{}, fmt.Errorf("plan: malformed binding source %q", jb.From)
		}
		b.Source.From = query.PathRef{Alias: alias, Path: path}
	default:
		return query.InputBinding{}, fmt.Errorf("plan: unknown binding kind %q", jb.Kind)
	}
	return b, nil
}

// decodeConst inverts Value.String, which the encoder writes constants
// with: a double-quoted string is unquoted with its escapes, so a constant
// holding a quote, a backslash or a control character survives any number
// of round trips. Everything else is a query literal.
func decodeConst(s string) types.Value {
	if strings.HasPrefix(s, `"`) {
		if u, err := strconv.Unquote(s); err == nil {
			return types.String(u)
		}
	}
	return types.ParseValue(s)
}

func decodeStrategy(js jsonStrategy) (join.Strategy, error) {
	s := join.Strategy{
		H: js.H, RatioX: js.RatioX, RatioY: js.RatioY,
		FlushOnExhaust: js.FlushOnExhaust,
	}
	switch js.Invocation {
	case "nested-loop":
		s.Invocation = join.NestedLoop
	case "merge-scan":
		s.Invocation = join.MergeScan
	default:
		return s, fmt.Errorf("plan: unknown invocation strategy %q", js.Invocation)
	}
	switch js.Completion {
	case "rectangular":
		s.Completion = join.Rectangular
	case "triangular":
		s.Completion = join.Triangular
	default:
		return s, fmt.Errorf("plan: unknown completion strategy %q", js.Completion)
	}
	return s, s.Validate()
}

func encodePreds(preds []query.Predicate) []jsonPred {
	var out []jsonPred
	for _, p := range preds {
		jp := jsonPred{
			LeftAlias: p.Left.Alias, LeftPath: p.Left.Path, Op: p.Op.String(),
		}
		switch p.Right.Kind {
		case query.TermConst:
			jp.TermKind = "const"
			jp.Const = p.Right.Const.String()
		case query.TermInput:
			jp.TermKind = "input"
			jp.Input = p.Right.Input
		case query.TermPath:
			jp.TermKind = "path"
			jp.PathAlias = p.Right.Path.Alias
			jp.PathPath = p.Right.Path.Path
		}
		out = append(out, jp)
	}
	return out
}

func decodePreds(jps []jsonPred) ([]query.Predicate, error) {
	var out []query.Predicate
	for _, jp := range jps {
		op, err := types.ParseOp(jp.Op)
		if err != nil {
			return nil, err
		}
		p := query.Predicate{
			Left: query.PathRef{Alias: jp.LeftAlias, Path: jp.LeftPath},
			Op:   op,
		}
		switch jp.TermKind {
		case "const":
			p.Right = query.Term{Kind: query.TermConst, Const: decodeConst(jp.Const)}
		case "input":
			p.Right = query.Term{Kind: query.TermInput, Input: jp.Input}
		case "path":
			p.Right = query.Term{Kind: query.TermPath,
				Path: query.PathRef{Alias: jp.PathAlias, Path: jp.PathPath}}
		default:
			return nil, fmt.Errorf("plan: unknown term kind %q", jp.TermKind)
		}
		out = append(out, p)
	}
	return out, nil
}

// cutFirst splits "Alias.Rest.Of.Path" at the first dot.
func cutFirst(s string) (string, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}
