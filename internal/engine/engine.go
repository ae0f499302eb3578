// Package engine isolates dual-topology routing state behind an explicit
// session/handle API — the serving core the dtrd daemon and the batch CLIs
// share.
//
// Before this package, every caller hand-wired the same stack per use: build
// a problem instance (graph + traffic matrices), construct an
// eval.Evaluator, wrap a resilience.Sweeper for failure sweeps. That wiring
// conflates two very different lifetimes:
//
//   - instance data — the CSR graph snapshot, traffic matrices, SLA
//     configuration, high-priority pair index — is immutable after
//     construction and safely shared by any number of readers;
//   - routing state — SPF trees, per-arc loads and score vectors, router
//     checkpoints, all held in eval.RoutingStates — is mutable, expensive to
//     build, and must stay private to one user at a time.
//
// The engine makes the split explicit. Load (or New) builds the immutable
// side once and returns a Handle. Handle.Session leases a Session — a
// pooled evaluator clone, owning the session's routing states, plus a
// lazily-created failure sweeper that drives them — whose mutations are
// invisible to every other session. Releasing the session returns its warm
// routing state to the pool for the next lease, so a long-lived server
// answers "route this", "what if link X fails" queries in milliseconds
// without per-request construction, while thousands of concurrent clients
// share one copy of the instance data.
//
// Determinism carries through: pooled sessions route sequentially
// (RouteWorkers = 1), so the same query on any session of a handle — or on
// a hand-wired evaluator for the same instance — produces bitwise-identical
// results regardless of concurrency or lease order.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/traffic"
)

// PoolConfig sizes a handle's session pool.
type PoolConfig struct {
	// Size bounds the number of concurrently leased sessions (and therefore
	// the handle's total routing-state memory: each session owns evaluator
	// plans and, once used, routing states). 0 means GOMAXPROCS.
	Size int
	// LeaseTimeout bounds how long Session waits for a pooled session when
	// all Size are leased, before failing with ErrLeaseTimeout. The serving
	// layer maps that to 503. 0 means 5s; negative means fail immediately.
	LeaseTimeout time.Duration
}

func (p PoolConfig) size() int {
	if p.Size > 0 {
		return p.Size
	}
	return runtime.GOMAXPROCS(0)
}

func (p PoolConfig) leaseTimeout() time.Duration {
	if p.LeaseTimeout != 0 {
		return p.LeaseTimeout
	}
	return 5 * time.Second
}

// Spec describes an instance to load through the topology/traffic generator
// registries — the declarative entry point the daemon's POST /v1/topologies
// uses. Name is advisory (handles are identified by whatever key the caller
// registers them under); Instance is the same spec the scenario engine and
// the batch CLIs build from, so a daemon-loaded topology is bitwise the
// instance the equivalent dtropt/dtrfail invocation would construct.
type Spec struct {
	Name     string
	Instance instance.Spec
	Pool     PoolConfig
}

// Errors returned by the session lifecycle.
var (
	// ErrLeaseTimeout reports that every pooled session stayed leased for
	// the whole lease timeout.
	ErrLeaseTimeout = errors.New("engine: session lease timed out (pool exhausted)")
	// ErrClosed reports a Session call on a closed handle.
	ErrClosed = errors.New("engine: handle is closed")
	// ErrLeakedCheckpoint reports that a session was released with an armed
	// checkpoint on one of its routing states. Release recovers (the session
	// is reset before pooling, so the next lease starts clean), but the leak
	// is a bug: a what-if was abandoned — typically by a panic unwinding
	// through a sweep — before it was rolled back.
	ErrLeakedCheckpoint = errors.New("engine: session released with an armed checkpoint (reset before reuse)")
	// ErrForeignSession reports a Release of a session that does not belong
	// to this handle.
	ErrForeignSession = errors.New("engine: released session belongs to a different handle")
)

// Handle is the immutable, shareable half of a loaded topology: the graph's
// CSR snapshot, both traffic matrices, the evaluator options, and a bounded
// pool of reusable Sessions. A Handle is safe for concurrent use by any
// number of goroutines.
type Handle struct {
	name string
	inst *instance.Instance
	base *eval.Evaluator // template all sessions clone from; never routed on

	pool    chan *Session
	timeout time.Duration

	mu      sync.Mutex
	created int
	maxSize int
	closed  bool
}

// Load builds the instance described by spec through the generator
// registries and returns its handle. The build is exactly
// instance.Spec.Build — same defaults, same seeded RNG streams — so
// engine-served results are comparable (bitwise) to batch runs of the same
// spec.
func Load(spec Spec) (*Handle, error) {
	inst, err := spec.Instance.Build()
	if err != nil {
		return nil, err
	}
	return New(spec.Name, inst, spec.Pool)
}

// New wraps a pre-built instance (an imported graph, a programmatically
// constructed problem) in a handle. The instance — graph, matrices, options
// — must not be mutated afterwards: every session reads it.
func New(name string, inst *instance.Instance, pool PoolConfig) (*Handle, error) {
	base, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		return nil, err
	}
	inst.G.CSR() // force the shared snapshot once, outside any session
	h := &Handle{
		name:    name,
		inst:    inst,
		base:    base,
		pool:    make(chan *Session, pool.size()),
		timeout: pool.leaseTimeout(),
		maxSize: pool.size(),
	}
	met.handles.Add(1)
	return h, nil
}

// Name returns the handle's advisory name.
func (h *Handle) Name() string { return h.name }

// Graph returns the shared immutable graph.
func (h *Handle) Graph() *graph.Graph { return h.inst.G }

// Matrices returns the shared high- and low-priority traffic matrices.
func (h *Handle) Matrices() (th, tl *traffic.Matrix) { return h.inst.TH, h.inst.TL }

// Options returns the evaluator options sessions score with.
func (h *Handle) Options() eval.Options { return h.inst.Opts }

// Instance returns the underlying problem instance. Callers must not mutate
// it.
func (h *Handle) Instance() *instance.Instance { return h.inst }

// PoolSize returns the maximum number of concurrently leased sessions.
func (h *Handle) PoolSize() int { return h.maxSize }

// Session leases a session: a pooled one if available, a fresh one while
// the pool is below its size bound, otherwise it waits for a release until
// ctx is done or the lease timeout elapses (ErrLeaseTimeout). The caller
// must Release the session when done with it — typically per request.
func (h *Handle) Session(ctx context.Context) (*Session, error) {
	// Fast path: a warm session is waiting.
	select {
	case s := <-h.pool:
		return h.leased(s)
	default:
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	if h.created < h.maxSize {
		h.created++
		h.mu.Unlock()
		s := newSession(h)
		met.sessionsCreated.Inc()
		return h.leased(s)
	}
	h.mu.Unlock()
	if h.timeout < 0 {
		met.leaseTimeouts.Inc()
		return nil, ErrLeaseTimeout
	}
	start := time.Now()
	timer := time.NewTimer(h.timeout)
	defer timer.Stop()
	select {
	case s := <-h.pool:
		met.sessionWait.Observe(time.Since(start).Seconds())
		return h.leased(s)
	case <-timer.C:
		met.leaseTimeouts.Inc()
		return nil, ErrLeaseTimeout
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// leased finalizes a successful acquisition.
func (h *Handle) leased(s *Session) (*Session, error) {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		// Raced with Close: drop the session rather than serving a deleted
		// topology.
		return nil, ErrClosed
	}
	met.sessionsActive.Add(1)
	return s, nil
}

// Release returns a session to the pool for the next lease. It asserts that
// no routing state the session owns holds an armed checkpoint: a leaked one
// (armed, never reverted) would silently poison the next user — the sweeper
// scores every state against a base it believes is routed, and the stale
// pre-images could roll routing back to a setting they never established. On
// a leak, the session is Reset (all incremental state discarded, so the pool
// stays clean) and ErrLeakedCheckpoint is returned for the caller's logs.
func (h *Handle) Release(s *Session) error {
	if s == nil {
		return nil
	}
	if s.h != h {
		return ErrForeignSession
	}
	var err error
	if s.checkpointArmed() {
		s.Reset()
		met.leakedCheckpoints.Inc()
		err = ErrLeakedCheckpoint
	}
	met.sessionsActive.Add(-1)
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return err // deleted topology: let the session be collected
	}
	select {
	case h.pool <- s:
	default:
		// More releases than leases (caller bug); drop the surplus session.
	}
	return err
}

// Close marks the handle deleted: subsequent Session calls fail with
// ErrClosed and released sessions are dropped instead of pooled. Sessions
// already leased remain usable until released, so in-flight requests finish
// normally after a DELETE.
func (h *Handle) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	met.handles.Add(-1)
	// Drain pooled sessions so their routing state is collectable now.
	for {
		select {
		case <-h.pool:
		default:
			return
		}
	}
}

// String implements fmt.Stringer for logs.
func (h *Handle) String() string {
	return fmt.Sprintf("engine.Handle(%s: %d nodes, %d arcs, pool %d)",
		h.name, h.inst.G.NumNodes(), h.inst.G.NumEdges(), h.maxSize)
}

// met bundles the engine's pre-resolved metric handles.
var met = struct {
	handles           *obs.Gauge
	sessionsCreated   *obs.Counter
	sessionsActive    *obs.Gauge
	leaseTimeouts     *obs.Counter
	leakedCheckpoints *obs.Counter
	sessionWait       *obs.Histogram
	routes            *obs.Counter
	whatifs           *obs.Counter
	resets            *obs.Counter
}{
	handles:           obs.Default().Gauge("engine_handles", "Topology handles currently loaded."),
	sessionsCreated:   obs.Default().Counter("engine_sessions_created_total", "Sessions constructed (pool growth, not leases)."),
	sessionsActive:    obs.Default().Gauge("engine_sessions_active", "Sessions currently leased."),
	leaseTimeouts:     obs.Default().Counter("engine_lease_timeouts_total", "Session leases that timed out with the pool exhausted."),
	leakedCheckpoints: obs.Default().Counter("engine_leaked_checkpoints_total", "Sessions released with an armed checkpoint (reset before reuse)."),
	sessionWait:       obs.Default().Histogram("engine_session_wait_seconds", "Time spent waiting for a pooled session.", obs.DefBuckets),
	routes:            obs.Default().Counter("engine_session_routes_total", "Route evaluations served by sessions."),
	whatifs:           obs.Default().Counter("engine_session_whatifs_total", "Failure-sweep what-ifs served by sessions."),
	resets:            obs.Default().Counter("engine_session_resets_total", "Session Resets (incremental state discarded)."),
}
