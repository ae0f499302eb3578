package churn

import (
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/ospf"
	"dualtopo/internal/spf"
)

// ConvergenceOptions parameterizes the OSPF-convergence emulation: after
// each event the affected routers originate LSAs that flood hop by hop
// (ospf.FloodSchedule, the analytic form of internal/ospf's protocol), and
// a router's forwarding stays on its pre-event tree until its LSA arrives
// and its SPF re-run completes. The transient score walks every affected
// high-priority pair through the resulting mix of stale and fresh FIBs.
type ConvergenceOptions struct {
	Enabled bool
	// FloodHopMs is the per-adjacency LSA propagation + processing delay
	// (default 2ms); SpfMs is the SPF recompute + FIB install time after
	// the last LSA arrives (default 50ms, the classic IGP default range).
	FloodHopMs float64
	SpfMs      float64
}

// normalized fills defaults.
func (c ConvergenceOptions) normalized() ConvergenceOptions {
	if c.FloodHopMs == 0 {
		c.FloodHopMs = 2
	}
	if c.SpfMs == 0 {
		c.SpfMs = 50
	}
	return c
}

// convState is the reusable convergence-mode machinery: per-destination
// first-hop snapshots (the "FIB" each router would hold for that
// destination), the flood scheduler, and walk scratch.
type convState struct {
	opt ConvergenceOptions
	fs  *ospf.FloodSchedule
	// hop[di][u] is the packed first next-hop arc (+1; 0 = no route) of
	// router u toward hpDests[di] under the current trees; prev[di] holds
	// the pre-event row for destinations whose tree just moved.
	hop  [][]int32
	prev [][]int32
	// treeMoved marks destinations whose row actually changed this event.
	treeMoved []bool
	origins   []graph.NodeID
	enabled   func(graph.EdgeID) bool
	stamp     []int32
	stampN    int32
	stale     bool // set across disconnection windows: snapshots unusable
	trans     Transient
}

func newConvState(r *Replayer) *convState {
	n := r.g.NumNodes()
	c := &convState{
		opt:       r.opts.Convergence.normalized(),
		fs:        ospf.NewFloodSchedule(r.g),
		hop:       make([][]int32, len(r.hpDests)),
		prev:      make([][]int32, len(r.hpDests)),
		treeMoved: make([]bool, len(r.hpDests)),
		origins:   make([]graph.NodeID, 0, 8),
		stamp:     make([]int32, n),
	}
	for di := range c.hop {
		c.hop[di] = make([]int32, n)
		c.prev[di] = make([]int32, n)
	}
	// An adjacency floods while either direction survives in the high
	// topology's effective weights (FailLink removes both together).
	c.enabled = func(id graph.EdgeID) bool { return r.buf[eval.High][id] != spf.Disabled }
	return c
}

// fillRow extracts destination di's first-hop row from the current tree.
func (r *Replayer) convFillRow(di int, row []int32) {
	t := r.st.Router(eval.High).Tree(r.hpDests[di])
	for u := range row {
		if t.NextLen(graph.NodeID(u)) > 0 {
			row[u] = int32(t.Next(graph.NodeID(u))[0]) + 1
		} else {
			row[u] = 0
		}
	}
}

// snapshotAll re-extracts every destination row — replay start and
// post-disconnection recovery.
func (c *convState) snapshotAll(r *Replayer) {
	for di := range c.hop {
		r.convFillRow(di, c.hop[di])
	}
	c.stale = false
}

// scoreTransient runs convergence emulation for one event: swap and
// refresh the rows of moved destinations, flood from the event's
// originators, then walk each affected pair through every convergence
// interval, charging demand forwarded into blackholes or micro-loops.
func (r *Replayer) scoreTransient(rec *Record, ev *Event, node graph.NodeID, uv, vu graph.EdgeID, ok, hadFull bool) {
	c := r.conv
	if !ok {
		// Disconnected: steady-state mass already charges the outage and
		// router state is unspecified; snapshots refresh on recovery.
		c.stale = true
		return
	}
	if c.stale || hadFull {
		// Recovery (or first event after an outage window): the pre-event
		// snapshots do not describe any router's real FIB, so refresh them
		// and skip transient attribution for this event.
		c.snapshotAll(r)
		c.trans = Transient{}
		rec.Transient = &c.trans
		return
	}
	// Refresh rows of destinations whose tree the event recomputed; note
	// which rows actually changed.
	anyMoved := false
	drH := r.st.Router(eval.High)
	for di, dest := range r.hpDests {
		c.treeMoved[di] = false
		if !drH.TreeDirty(dest) {
			continue
		}
		c.hop[di], c.prev[di] = c.prev[di], c.hop[di]
		r.convFillRow(di, c.hop[di])
		for u := range c.hop[di] {
			if c.hop[di][u] != c.prev[di][u] {
				c.treeMoved[di] = true
				anyMoved = true
				break
			}
		}
	}

	c.trans = Transient{}
	rec.Transient = &c.trans
	if !anyMoved {
		return
	}

	// Who originates the update, per internal/ospf semantics: the routers
	// whose adjacencies changed. A dead node cannot originate — its
	// neighbors detect the loss; a reborn node announces itself alongside
	// its neighbors.
	c.origins = c.origins[:0]
	switch ev.Kind {
	case LinkDown, LinkUp, WeightSet:
		c.origins = append(c.origins, r.g.Edge(uv).From, r.g.Edge(uv).To)
	case NodeDown, NodeUp:
		if ev.Kind == NodeUp {
			c.origins = append(c.origins, node)
		}
		for _, id := range r.g.Out(node) {
			c.origins = append(c.origins, r.g.Edge(id).To)
		}
	}
	hops := c.fs.Hops(c.enabled, c.origins...)
	maxHop := int32(0)
	for _, h := range hops {
		if h > maxHop {
			maxHop = h
		}
	}
	c.trans.WindowMs = c.opt.SpfMs + float64(maxHop)*c.opt.FloodHopMs
	if c.trans.WindowMs > r.sum.MaxWindowMs {
		r.sum.MaxWindowMs = c.trans.WindowMs
	}

	// Interval i covers [T_{i-1}, T_i) with T_i = SpfMs + i·FloodHopMs:
	// during it, exactly the routers with hops < i have converged. The
	// walk follows the first canonical ECMP next-hop.
	for di := range r.hpDests {
		if !c.treeMoved[di] {
			continue
		}
		dest := r.hpDests[di]
		cur, prev := c.hop[di], c.prev[di]
		for _, src := range r.hpSrcs[di] {
			if r.nodeDown[src] || r.nodeDown[dest] {
				continue // charged as steady disconnection mass
			}
			affected := false
			for i := int32(0); i <= maxHop; i++ {
				width := c.opt.FloodHopMs
				if i == 0 {
					width = c.opt.SpfMs
				}
				if width <= 0 {
					continue
				}
				outcome := c.walk(r, src, dest, cur, prev, hops, i)
				if outcome == walkDelivered {
					continue
				}
				if outcome == walkLoop {
					c.trans.MicroLoops++
				} else {
					c.trans.Blackholes++
				}
				affected = true
				c.trans.LostMbpsSec += r.th.At(src, dest) * width / 1000
			}
			if affected {
				c.trans.AffectedPairs++
			}
		}
	}
	r.sum.TransientMbpsSec += c.trans.LostMbpsSec
	r.sum.MicroLoops += c.trans.MicroLoops
	r.sum.Blackholes += c.trans.Blackholes
	met.transientMbs.Add(int64(c.trans.LostMbpsSec * 1e6))
}

type walkOutcome uint8

const (
	walkDelivered walkOutcome = iota
	walkLoop
	walkBlackhole
)

// walk forwards one packet from src toward dest under the interval's
// mixed FIBs: converged routers (hops < interval) use the fresh tree,
// the rest their stale pre-event row. Entering a disabled arc is a
// blackhole (the interface is down); revisiting a router is a micro-loop.
func (c *convState) walk(r *Replayer, src, dest graph.NodeID, cur, prev []int32, hops []int32, interval int32) walkOutcome {
	c.stampN++
	u := src
	for steps := 0; steps <= len(c.stamp); steps++ {
		if u == dest {
			return walkDelivered
		}
		if c.stamp[u] == c.stampN {
			return walkLoop
		}
		c.stamp[u] = c.stampN
		row := prev
		if hops[u] >= 0 && hops[u] < interval {
			row = cur
		}
		packed := row[u]
		if packed == 0 {
			return walkBlackhole
		}
		arc := graph.EdgeID(packed - 1)
		if r.buf[eval.High][arc] == spf.Disabled {
			return walkBlackhole
		}
		u = r.g.Edge(arc).To
	}
	return walkLoop // safety net: longer than any simple path
}
