package eval

import (
	"errors"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// High and Low index the two traffic classes wherever per-class data is kept
// in a [2] array.
const (
	High = iota
	Low
)

// Shape selects how a RoutingState routes the two classes.
type Shape int

const (
	// RouteSTR routes both classes on one router under one weight setting.
	RouteSTR Shape = iota
	// RouteDTR routes each class on its own router under its own setting.
	RouteDTR
)

// RoutingState is the incremental form of the paper's evaluation: the delta
// router(s) of one routing scheme plus the per-arc ΦH, residual, ΦL and
// Eq. (3) delay vectors and the per-pair delays, kept current across weight
// transitions by re-scoring only the arcs whose loads moved. Every reduction
// walks the maintained vectors in the order the full evaluation sums them, so
// each number is bitwise-equal to EvaluateSTR / EvaluateDTR at the same
// weights — the property Evaluator.Verify checks, for the Verify modes of
// the search, the failure sweeper and the churn replayer.
//
// A RouteDTR transition may move one class and leave the other where it is
// — FindH's and FindL's moves. A class whose transition fails with
// spf.ErrNoPath is left invalid; the other class is still moved and
// re-scored, and the failed class's next successful transition routes from
// scratch and re-scores every arc.
//
// Only what is read is paid for. The per-arc ΦH and delay vectors come into
// being at the first PhiH or Penalties call and are maintained from then on,
// and pair delays — a tree walk per destination — are recomputed only when
// Penalties reads them: a transition merely marks the destinations it could
// have changed. A state that is only ever asked for ΦL (a failure sweep)
// computes neither a ΦH nor a delay.
//
// A what-if (Checkpoint, one transition, reads, Revert) costs what the
// transition changed, both ways: delays it recomputes keep their pre-images,
// so what-if after what-if recomputes no delay twice.
//
// A RoutingState is not safe for concurrent use.
type RoutingState struct {
	in *instance

	// dr[c] routes class c; a RouteSTR state carries both matrices on
	// dr[High] and has no dr[Low].
	dr [2]*spf.DeltaRouter
	// loads[c] is class c's per-arc load vector, a router's aggregate.
	loads [2][]float64

	residual []float64
	linkPhiL []float64
	linkPhiH []float64 // nil until first read

	// Delay state, nil until the first Penalties call. stale marks the
	// destinations whose pair delays must be recomputed before the next read.
	linkDelay []float64
	pairDelay [][]float64
	stale     []bool

	// moved[c] is the moved-arc set of class c's router in the last
	// transition (nil if it failed or did not move c). Under an armed
	// checkpoint, cpMarked lists the destinations a transition marked stale
	// and cpDests those whose delays were recomputed, their previous delays
	// kept in cpPair. Revert needs all four.
	moved    [2][]graph.EdgeID
	cpMarked []int
	cpDests  []int
	cpPair   [][]float64
	diffBuf  []graph.EdgeID
}

// newRoutingState builds an unrouted state of the given shape over e's
// problem instance, routing from scratch with e's SetRouteWorkers bound.
// Only immutable instance data is shared with e: the state owns its routers,
// and e's plans are never touched. Evaluator.State is its one caller outside
// tests, so an evaluator's states are the only ones there are.
func newRoutingState(e *Evaluator, shape Shape) *RoutingState {
	in := e.instance
	m := in.g.NumEdges()
	s := &RoutingState{in: in, residual: make([]float64, m), linkPhiL: make([]float64, m)}
	if shape == RouteSTR {
		s.dr[High] = spf.NewDeltaRouter(in.g, in.th, in.tl)
		s.loads = [2][]float64{s.dr[High].Loads[0], s.dr[High].Loads[1]}
	} else {
		s.dr = [2]*spf.DeltaRouter{spf.NewDeltaRouter(in.g, in.th), spf.NewDeltaRouter(in.g, in.tl)}
		s.loads = [2][]float64{s.dr[High].Loads[0], s.dr[Low].Loads[0]}
	}
	s.setRouteWorkers(e.routeWorkers)
	return s
}

// setRouteWorkers bounds the SPF worker pool the state's routers route from
// scratch with; see Evaluator.SetRouteWorkers.
func (s *RoutingState) setRouteWorkers(n int) {
	for _, dr := range s.dr {
		if dr != nil {
			dr.SetWorkers(n)
		}
	}
}

// Router exposes class c's router for read-only inspection (trees, loads,
// weights, stats); nil if the state does not route c on a router of its own.
// Callers must not route on it.
func (s *RoutingState) Router(c int) *spf.DeltaRouter { return s.dr[c] }

// Reset disarms any checkpoint and makes the next transition route from
// scratch.
func (s *RoutingState) Reset() {
	for _, dr := range s.dr {
		if dr != nil {
			dr.Reset()
		}
	}
}

// Valid reports whether every class the state routes holds a routed state;
// false before the first transition and after a disconnecting one.
func (s *RoutingState) Valid() bool {
	for _, dr := range s.dr {
		if dr != nil && !dr.Valid() {
			return false
		}
	}
	return true
}

// Apply transitions the state to w, where changed lists every arc on which
// any moved class's weights differ from its router's current setting (a
// superset is fine). w[c] is read only for classes with a router of their
// own; a RouteSTR state reads w[High]. A nil w[c] leaves class c's router
// where it is, as does a w[c] equal to its setting on every listed arc, and
// the re-score touches only what the moved class drives: a low-priority
// transition re-scores ΦL alone. It returns the number of arcs
// whose loads moved, summed over the routers that succeeded. An spf.ErrNoPath
// error means some class is disconnected (see the type comment for what
// state that leaves); any other error leaves the state unusable.
func (s *RoutingState) Apply(w [2]spf.Weights, changed []graph.EdgeID) (int, error) {
	return s.transition(w, changed, false)
}

// Move is Apply for a caller that does not track what changed: each router's
// changed set is the exact diff between its current setting and w.
func (s *RoutingState) Move(w [2]spf.Weights) (int, error) {
	return s.transition(w, nil, true)
}

func (s *RoutingState) transition(w [2]spf.Weights, changed []graph.EdgeID, diff bool) (int, error) {
	total := 0
	var noPath error
	for c, dr := range s.dr {
		s.moved[c] = nil
		if dr == nil || w[c] == nil {
			continue
		}
		if diff {
			s.diffBuf = spf.DiffArcs(dr.Weights(), w[c], s.diffBuf[:0])
			changed = s.diffBuf
		}
		if dr.Valid() && !differs(dr.Weights(), w[c], changed) {
			continue
		}
		// An invalid router routes from scratch here and reports every arc
		// as moved, which makes the re-score below a full one.
		moved, err := dr.Apply(w[c], changed)
		s.moved[c] = moved
		if err != nil {
			if !errors.Is(err, spf.ErrNoPath) {
				return total, err
			}
			if noPath == nil {
				noPath = err
			}
			continue
		}
		s.rescore(c, moved)
		if c == High && s.linkDelay != nil {
			s.markStale(moved)
		}
		total += len(moved)
	}
	return total, noPath
}

// differs reports whether a and b differ on any listed arc.
func differs(a, b spf.Weights, arcs []graph.EdgeID) bool {
	for _, id := range arcs {
		if a[id] != b[id] {
			return true
		}
	}
	return false
}

// rescore recomputes the per-arc vectors that class c's loads drive on the
// listed arcs — the per-arc expressions of Evaluator.finish. The high class
// drives every vector (through the residual); the low class drives ΦL only.
func (s *RoutingState) rescore(c int, arcs []graph.EdgeID) {
	in := s.in
	h, l := s.loads[High], s.loads[Low]
	for _, a := range arcs {
		if c == High {
			s.residual[a] = cost.Residual(in.capacity[a], h[a])
			if s.linkPhiH != nil {
				s.linkPhiH[a] = cost.Phi(h[a], in.capacity[a])
				if s.linkDelay != nil { // implies linkPhiH
					s.linkDelay[a] = in.linkDelayAt(int(a), h[a], s.linkPhiH[a])
				}
			}
		}
		s.linkPhiL[a] = cost.Phi(l[a], s.residual[a])
	}
}

// markStale marks every high-priority destination whose pair delays the last
// high-class transition could have moved: a recomputed tree (different DAG),
// or a moved-load arc lying on the destination's ECMP DAG. Other
// destinations' delays are bitwise-unchanged because Tree.Delays reads only
// DAG arcs.
func (s *RoutingState) markStale(moved []graph.EdgeID) {
	dr, armed := s.dr[High], s.CheckpointArmed()
	for di, dest := range s.in.hpDests {
		if s.stale[di] {
			continue
		}
		dirty := dr.TreeDirty(dest)
		for i := 0; !dirty && i < len(moved); i++ {
			dirty = dr.TreeUsesArc(dest, moved[i])
		}
		s.stale[di] = dirty
		if dirty && armed {
			s.cpMarked = append(s.cpMarked, di)
		}
	}
}

// refreshDelays brings the pair delays of every stale destination up to
// date. The first call allocates the delay state and computes all of it.
// Under an armed checkpoint each recomputed destination's previous delays
// change hands into cpPair for Revert.
func (s *RoutingState) refreshDelays() {
	in := s.in
	if s.linkDelay == nil {
		s.linkDelay = make([]float64, len(s.residual))
		for a, phi := range s.phiH() {
			s.linkDelay[a] = in.linkDelayAt(a, s.loads[High][a], phi)
		}
		s.pairDelay = make([][]float64, len(in.hpDests))
		s.stale = make([]bool, len(in.hpDests))
		for di := range s.pairDelay {
			s.pairDelay[di] = make([]float64, len(in.hpSrcs[di]))
			s.stale[di] = true
		}
		s.cpMarked = make([]int, 0, len(in.hpDests))
		s.cpDests = make([]int, 0, len(in.hpDests))
		s.cpPair = make([][]float64, len(in.hpDests))
	}
	armed := s.CheckpointArmed()
	for di, dest := range in.hpDests {
		if !s.stale[di] {
			continue
		}
		s.stale[di] = false
		if armed {
			if s.cpPair[di] == nil {
				s.cpPair[di] = make([]float64, len(in.hpSrcs[di]))
			}
			s.pairDelay[di], s.cpPair[di] = s.cpPair[di], s.pairDelay[di]
			s.cpDests = append(s.cpDests, di)
		}
		xi := s.dr[High].DelaysTo(dest, s.linkDelay)
		for si, src := range in.hpSrcs[di] {
			s.pairDelay[di][si] = xi[src]
		}
	}
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// phiH returns the per-arc ΦH vector, computing all of it on first use.
func (s *RoutingState) phiH() []float64 {
	if s.linkPhiH == nil {
		s.linkPhiH = make([]float64, len(s.residual))
		for a, h := range s.loads[High] {
			s.linkPhiH[a] = cost.Phi(h, s.in.capacity[a])
		}
	}
	return s.linkPhiH
}

// PhiH re-reduces ΦH in ascending arc order, the summation sequence of
// Evaluator.finish. The state must route the high-priority class.
func (s *RoutingState) PhiH() float64 { return sum(s.phiH()) }

// PhiL re-reduces ΦL in ascending arc order.
func (s *RoutingState) PhiL() float64 { return sum(s.linkPhiL) }

// Objective is the state's twin of Result.Objective: ⟨ΦH, ΦL⟩ on load-based
// instances, ⟨Λ, ΦL⟩ on SLA-based ones, bitwise-equal to the full
// evaluation's at the state's weights. The state must route the
// high-priority class.
func (s *RoutingState) Objective() cost.Lex {
	if s.in.opts.Kind == SLABased {
		lambda, _, _ := s.Penalties()
		return cost.Lex{Primary: lambda, Secondary: s.PhiL()}
	}
	return cost.Lex{Primary: s.PhiH(), Secondary: s.PhiL()}
}

// Penalties reduces the pair delays to Λ (Eq. 4), the number of violating
// pairs and the high-priority demand they carry, in the destination-major
// order of Evaluator.finish. Load-based instances are scored against the
// paper's default SLA. The state must route the high-priority class.
func (s *RoutingState) Penalties() (lambda float64, violations int, mass float64) {
	s.refreshDelays()
	in := s.in
	for di, delays := range s.pairDelay {
		for si, xi := range delays {
			if pen := in.sla.PairPenalty(xi); pen > 0 {
				lambda += pen
				violations++
				mass += in.th.At(in.hpSrcs[di][si], in.hpDests[di])
			}
		}
	}
	return lambda, violations, mass
}

// ResultInto fills r, reusing its slices, with the full evaluation of the
// state's routing read off the maintained vectors: every field is
// bitwise-equal to what EvaluateSTRInto / EvaluateDTRInto writes at the
// state's weights. The state must be Valid.
func (s *RoutingState) ResultInto(r *Result) {
	linkDelay, pairDelays := r.LinkDelay, r.PairDelays
	*r = Result{
		PhiH:     s.PhiH(),
		PhiL:     s.PhiL(),
		HLoads:   append(r.HLoads[:0], s.loads[High]...),
		LLoads:   append(r.LLoads[:0], s.loads[Low]...),
		Residual: append(r.Residual[:0], s.residual...),
		LinkPhiH: append(r.LinkPhiH[:0], s.phiH()...),
		LinkPhiL: append(r.LinkPhiL[:0], s.linkPhiL...),
		kind:     s.in.opts.Kind,
	}
	if r.kind == SLABased {
		r.Lambda, r.Violations, r.ViolationMass = s.Penalties()
		r.LinkDelay = append(linkDelay[:0], s.linkDelay...)
		r.PairDelays = pairDelays[:0]
		for _, d := range s.pairDelay {
			r.PairDelays = append(r.PairDelays, d...)
		}
	}
}

// MaxUtilization is the maximum per-arc total utilization (H+L)/C, equal to
// Result.MaxUtilization.
func (s *RoutingState) MaxUtilization() float64 {
	h, l := s.loads[High], s.loads[Low]
	max := 0.0
	for a, c := range s.in.capacity {
		if u := (h[a] + l[a]) / c; u > max {
			max = u
		}
	}
	return max
}

// Checkpoint arms a rollback point on every router so that one transition
// can be scored and undone without recomputation. Live pair delays are
// settled first, so that every delay the what-if recomputes has a pre-image.
// It fails on a state that is not Valid.
func (s *RoutingState) Checkpoint() error {
	if s.linkDelay != nil && s.Valid() {
		s.refreshDelays()
	}
	s.cpMarked, s.cpDests = s.cpMarked[:0], s.cpDests[:0]
	for _, dr := range s.dr {
		if dr == nil {
			continue
		}
		if err := dr.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointArmed reports whether any router still holds an armed checkpoint
// — a what-if that was never reverted.
func (s *RoutingState) CheckpointArmed() bool {
	for _, dr := range s.dr {
		if dr != nil && dr.CheckpointArmed() {
			return true
		}
	}
	return false
}

// Revert rolls every router back to the armed checkpoint — recovering even a
// class the transition disconnected — and restores the score vectors bitwise:
// the rolled-back loads are the checkpointed loads again, so re-scoring the
// arcs the transition moved puts every per-arc value back. So do the pair
// delays: recomputed ones get their pre-images swapped back, and no
// destination is left stale that was not stale at Checkpoint. At most one
// transition may sit between Checkpoint and Revert.
func (s *RoutingState) Revert() {
	for _, dr := range s.dr {
		if dr != nil {
			dr.Revert()
		}
	}
	for c, moved := range s.moved {
		s.rescore(c, moved)
	}
	// A recomputed destination the transition did not mark was stale at
	// Checkpoint (the delays' first read): it stays stale.
	for _, di := range s.cpDests {
		s.pairDelay[di], s.cpPair[di] = s.cpPair[di], s.pairDelay[di]
		s.stale[di] = true
	}
	for _, di := range s.cpMarked {
		s.stale[di] = false
	}
	s.cpMarked, s.cpDests = s.cpMarked[:0], s.cpDests[:0]
}
