package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"time"

	"knncost/internal/geom"
	"knncost/internal/optimizer"
)

// PlanSelect is one kNN-Select predicate of a POST /plan request.
type PlanSelect struct {
	Relation string  `json:"relation"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	K        int     `json:"k"`
	// Technique names a registered select technique; empty means
	// staircase-cc.
	Technique string `json:"technique,omitempty"`
}

// PlanJoin is the optional kNN-Join predicate of a POST /plan request.
type PlanJoin struct {
	Outer string `json:"outer"`
	Inner string `json:"inner"`
	K     int    `json:"k"`
	// Technique names a registered join technique; empty means
	// catalog-merge.
	Technique string `json:"technique,omitempty"`
}

// PlanRequest is the body of POST /plan: a conjunctive query with at least
// two kNN predicates — two or more selects, or a join plus selects on its
// sides — and an optional non-spatial filter selectivity.
type PlanRequest struct {
	Selects []PlanSelect `json:"selects"`
	Join    *PlanJoin    `json:"join,omitempty"`
	// FilterSelectivity in (0,1] models an extra non-spatial filter the
	// driving select evaluates on the fly; 0 means none.
	FilterSelectivity float64 `json:"filter_selectivity,omitempty"`
}

// PlanTerm is one registry-estimator invocation of the chosen plan's cost.
type PlanTerm struct {
	Kind      string  `json:"kind"`
	Relation  string  `json:"relation"`
	Inner     string  `json:"inner,omitempty"`
	K         int     `json:"k"`
	Technique string  `json:"technique"`
	Count     float64 `json:"count"`
	Blocks    float64 `json:"blocks"`
}

// PlanAlternative is one enumerated plan of a PlanResponse.
type PlanAlternative struct {
	Description     string     `json:"description"`
	EstimatedBlocks float64    `json:"estimated_blocks"`
	Terms           []PlanTerm `json:"terms,omitempty"`
}

// PlanResponse is the reply to POST /plan. Alternatives are sorted by
// ascending estimated cost and include the chosen plan (first). Cached
// reports a plan-cache hit; Explain carries the EXPLAIN text when the
// request asked for it with ?explain=1.
type PlanResponse struct {
	Chosen       PlanAlternative   `json:"chosen"`
	Alternatives []PlanAlternative `json:"alternatives"`
	Cached       bool              `json:"cached"`
	Explain      string            `json:"explain,omitempty"`
	TookNs       int64             `json:"took_ns"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadJSONPost(w, r, maxBatchBody, "decoding plan request")
	if !ok {
		return
	}
	var req PlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		badRequest(w, "decoding plan request: %v", err)
		return
	}
	for i, sel := range req.Selects {
		if math.IsNaN(sel.X) || math.IsInf(sel.X, 0) || math.IsNaN(sel.Y) || math.IsInf(sel.Y, 0) {
			badRequest(w, "selects[%d]: x and y must be finite numbers, got (%v, %v)", i, sel.X, sel.Y)
			return
		}
	}
	// One View load covers relation resolution and planning, so the plan
	// always prices a single consistent schema. Resolving here (instead of
	// letting the optimizer fail) keeps the standard error mapping: unknown
	// relation → 400 listing the published names, known-but-unready → 503
	// with Retry-After.
	v := s.store.View()
	q := optimizer.Query{Selectivity: req.FilterSelectivity}
	if len(req.Selects) > 0 {
		q.Selects = make([]optimizer.SelectPredicate, len(req.Selects))
		for i, sel := range req.Selects {
			if _, ok := s.resolveRelation(w, v, sel.Relation); !ok {
				return
			}
			q.Selects[i] = optimizer.SelectPredicate{
				Relation:  sel.Relation,
				Query:     geom.Point{X: sel.X, Y: sel.Y},
				K:         sel.K,
				Technique: sel.Technique,
			}
		}
	}
	if req.Join != nil {
		for _, name := range []string{req.Join.Outer, req.Join.Inner} {
			if _, ok := s.resolveRelation(w, v, name); !ok {
				return
			}
		}
		q.Join = &optimizer.JoinPredicate{
			Outer:     req.Join.Outer,
			Inner:     req.Join.Inner,
			K:         req.Join.K,
			Technique: req.Join.Technique,
		}
	}
	start := time.Now()
	dec, err := s.planner.Plan(v, q)
	if err != nil {
		// Relations were pre-resolved against v, so what remains are client
		// mistakes: malformed queries, unknown techniques (the message lists
		// what is registered), or estimator rejections.
		badRequest(w, "%v", err)
		return
	}
	took := time.Since(start)
	resp := PlanResponse{
		Chosen:       planAlternative(dec.Chosen, true),
		Alternatives: make([]PlanAlternative, len(dec.Alternatives)),
		Cached:       dec.Cached,
		TookNs:       took.Nanoseconds(),
	}
	for i, p := range dec.Alternatives {
		resp.Alternatives[i] = planAlternative(p, false)
	}
	if r.URL.Query().Get("explain") != "" {
		resp.Explain = dec.Explain()
	}
	writeJSON(w, http.StatusOK, resp)
}

// planAlternative shapes one optimizer plan for the wire; the cost terms
// ride along only on the chosen plan.
func planAlternative(p *optimizer.Plan, withTerms bool) PlanAlternative {
	out := PlanAlternative{Description: p.Description, EstimatedBlocks: p.EstimatedCost}
	if withTerms {
		out.Terms = make([]PlanTerm, len(p.Terms))
		for i, t := range p.Terms {
			out.Terms[i] = PlanTerm{
				Kind: string(t.Kind), Relation: t.Relation, Inner: t.Inner,
				K: t.K, Technique: t.Technique, Count: t.Count, Blocks: t.Blocks,
			}
		}
	}
	return out
}
