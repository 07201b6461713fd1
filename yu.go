// Package yu is a verification system for checking traffic load properties
// (TLPs) of BGP/IS-IS/SR networks under arbitrary k-failure scenarios — a
// from-scratch reproduction of "A General and Efficient Approach to
// Verifying Traffic Load Properties under Arbitrary k Failures"
// (SIGCOMM 2024).
//
// Given a network (topology + router configurations), a set of input
// flows, and a failure budget k, YU answers: in every scenario with at
// most k failed links/routers, does every link's traffic load stay within
// its bounds, and is traffic still delivered? When the answer is no, YU
// produces a concrete witness failure scenario.
//
// The pipeline is: symbolic route simulation (guarded RIBs and SR
// policies), symbolic traffic execution over MTBDDs with k-failure
// equivalence reduction (KREDUCE), and terminal-scan verification with
// link-local flow-equivalence aggregation. Two baselines are bundled: a
// Jingubang-style concrete enumerator and a QARC-style shortest-path
// searcher.
//
// Quick start:
//
//	net, err := yu.LoadFile("network.yu")
//	rep, err := net.Verify(yu.VerifyOptions{K: 2, OverloadFactor: 0.95})
//	for _, v := range rep.Violations {
//	    fmt.Println(v.Describe(net.Topology()))
//	}
package yu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/spath"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// Re-exported domain types. The aliases give the public API stable names
// for the model types used in options and reports.
type (
	// FailureMode selects which element class may fail.
	FailureMode = topo.FailureMode
	// Flow is one input traffic flow.
	Flow = topo.Flow
	// LoadBound is a per-link traffic load property.
	LoadBound = topo.LoadBound
	// DeliveredBound is a delivered-traffic property.
	DeliveredBound = topo.DeliveredBound
	// Violation is a TLP violation with its witness scenario.
	Violation = core.Violation
	// LinkCheckStat records per-link verification effort.
	LinkCheckStat = core.LinkCheckStat
	// Spec is the parsed network specification.
	Spec = config.Spec
	// DirLinkID identifies a directed link (used in partial reports).
	DirLinkID = topo.DirLinkID
	// BudgetPolicy selects the response to an MTBDD node-budget breach.
	BudgetPolicy = core.BudgetPolicy
	// SchedStats summarizes the class execution (classes executed,
	// global-equivalence dedup) — see Report.Sched.
	SchedStats = core.SchedStats
	// Metrics is the run-metrics registry for VerifyOptions.Obs: phase
	// timings, per-cache MTBDD hit/miss counters, per-worker counters
	// (DESIGN.md §11). Create with NewMetrics; read with Snapshot.
	Metrics = obs.Registry
	// MetricsSnapshot is the serializable view of a Metrics registry —
	// the payload behind `yu -metrics=json`.
	MetricsSnapshot = obs.Snapshot
	// STFCache is the cross-run symbolic-execution cache hook consulted
	// before each class execution (VerifyOptions.STFCache).
	// Implementations must honor the contract documented on
	// core.STFCache; the incremental daemon (internal/serve) is the
	// canonical one.
	STFCache = core.STFCache
	// ExecEngine is the symbolic execution engine handed to STFCache
	// callbacks (core.Engine; "Exec" avoids clashing with the Engine
	// selector constant type).
	ExecEngine = core.Engine
	// FlowSTF is one flow's symbolic traffic fractions — the value an
	// STFCache stores and serves.
	FlowSTF = core.FlowSTF
	// TLProp is one property of a portfolio evaluated by VerifyPortfolio:
	// a link load, utilization, delivered-traffic, or delivery-ratio
	// bound, optionally conditional on a link failure.
	TLProp = topo.TLProp
	// TLPResult is a portfolio evaluation outcome: per-property verdicts
	// plus violations grouped by witness failure set and ranked by excess.
	TLPResult = tlp.Result
	// ModularStats summarizes a compositional (domain-decomposed) run:
	// domain and border-link counts, lockstep BGP rounds, and how many
	// equivalence classes were verified inside a domain vs. falling back
	// to monolithic execution — see Report.Modular.
	ModularStats = compose.Stats
)

// NewMetrics returns an empty metrics registry to attach to a run via
// VerifyOptions.Obs. Metrics collection is off (and free) when the
// field is nil.
func NewMetrics() *Metrics { return obs.New() }

// Failure modes.
const (
	FailLinks   = topo.FailLinks
	FailRouters = topo.FailRouters
	FailBoth    = topo.FailBoth
)

// Budget policies for VerifyOptions.OnBudget.
const (
	// BudgetFail (the default) aborts on an unrelieved node-budget breach
	// with ErrNodeBudget and a partial report.
	BudgetFail = core.BudgetFail
	// BudgetDegrade walks the degradation ladder instead: breaching flows
	// are re-verified by bounded concrete enumeration (annotated in
	// Report.DegradedFlows), breaching link checks are skipped and listed
	// as unchecked.
	BudgetDegrade = core.BudgetDegrade
)

// Typed governance errors. Verify returns these (match with errors.Is)
// together with a partial Report when a run is cut short.
var (
	// ErrCanceled reports a canceled context.
	ErrCanceled = govern.ErrCanceled
	// ErrDeadline reports an expired context deadline.
	ErrDeadline = govern.ErrDeadline
	// ErrNodeBudget reports an MTBDD node-budget breach under BudgetFail.
	ErrNodeBudget = govern.ErrNodeBudget
)

// Network is a loaded network specification ready for verification.
type Network struct {
	spec *config.Spec
}

// Load parses a network specification (see internal/config.ParseSpec for
// the format) from r.
func Load(r io.Reader) (*Network, error) {
	spec, err := config.ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec}, nil
}

// LoadFile parses a network specification file.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// LoadString parses a network specification from a string.
func LoadString(s string) (*Network, error) {
	spec, err := config.ParseSpecString(s)
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec}, nil
}

// FromSpec wraps an already-built specification (e.g. from the generators).
func FromSpec(spec *config.Spec) *Network { return &Network{spec: spec} }

// Spec exposes the underlying parsed specification.
func (n *Network) Spec() *config.Spec { return n.spec }

// Topology exposes the network topology.
func (n *Network) Topology() *topo.Network { return n.spec.Net }

// Engine selects the verification engine.
type Engine int

const (
	// EngineYU is the symbolic traffic execution engine (the paper's
	// contribution): one symbolic run covers all scenarios.
	EngineYU Engine = iota
	// EngineEnumerate is the Jingubang-style baseline: concrete
	// simulation of every C(n, <=k) scenario.
	EngineEnumerate
	// EngineShortestPath is the QARC-style baseline: shortest-path-only
	// model with failure-set search. Check spath.Faithful before
	// trusting its verdicts on feature-rich networks.
	EngineShortestPath
)

// VerifyOptions configures a verification run. The zero value verifies
// the spec's own properties under the spec's failure budget with the YU
// engine.
type VerifyOptions struct {
	// K overrides the spec's failure budget when K > 0 or KSet is true;
	// otherwise the spec's own budget applies.
	K int
	// KSet makes K take effect even when it is 0, the no-failure
	// baseline.
	KSet bool
	// Mode overrides the spec's failure mode when set.
	Mode FailureMode
	// ModeSet makes Mode take effect.
	ModeSet bool
	// OverloadFactor, when > 0, additionally checks that every directed
	// link carries at most factor × capacity.
	OverloadFactor float64
	// Flows overrides the spec's flows when non-nil.
	Flows []Flow
	// Engine selects YU or a baseline.
	Engine Engine
	// DisableKReduce turns off the k-failure MTBDD reduction (the
	// "YU w/o MTBDD reduction" ablation; EngineYU only).
	DisableKReduce bool
	// DisableLinkLocalEquiv and DisableGlobalEquiv turn off the flow
	// equivalence optimizations (EngineYU only).
	DisableLinkLocalEquiv bool
	DisableGlobalEquiv    bool
	// Incremental enables incremental re-simulation (EngineEnumerate).
	Incremental bool
	// Workers sizes the concurrent link-check pool of EngineYU: with
	// Workers > 1 the overload check fans the directed links out over
	// that many check workers, each with a private MTBDD manager. Flow
	// classes are always executed once, in the primary manager. 0 or 1
	// checks sequentially; reports are identical either way (modulo
	// wall-clock fields).
	Workers int
	// Ctx, when non-nil, makes the run cancellable: cancellation or an
	// expired deadline aborts within milliseconds and Verify returns
	// ErrCanceled / ErrDeadline with a partial Report.
	Ctx context.Context
	// MaxNodes, when > 0, bounds the live MTBDD nodes of every manager
	// the run creates (EngineYU only). A breach first triggers a managed
	// GC and a retry; an unrelieved breach is handled per OnBudget.
	MaxNodes int
	// OnBudget selects the response to an unrelieved MaxNodes breach:
	// BudgetFail (default) or BudgetDegrade.
	OnBudget BudgetPolicy
	// Obs, when non-nil, collects run metrics — phase durations,
	// per-manager MTBDD cache stats, per-worker counters — into the
	// registry (read them with Obs.Snapshot() after Verify returns,
	// including on partial/incomplete runs). nil disables collection
	// with zero overhead.
	Obs *Metrics
	// STFCache, when non-nil, lets the run reuse symbolic execution
	// results from previous runs (EngineYU only): each equivalence class
	// is offered to the cache before execution and stored after.
	// Soundness is the cache's responsibility — see the core.STFCache
	// contract. Reports remain byte-identical to uncached runs when the
	// cache honors it.
	STFCache STFCache
	// Domains, when non-nil, turns on compositional verification
	// (EngineYU only): the named router partition — which must be
	// AS-closed — is route-simulated and symbolically executed one domain
	// at a time against interface summaries, breaking the monolithic
	// MTBDD scaling wall. The spec's own `domain` lines are available as
	// Spec().Domains. Flows beyond a summary's precision limit fall back
	// to whole-network execution; reports stay byte-identical to
	// monolithic runs. An invalid partition is a hard error.
	Domains map[string][]string
	// AutoDomains, when > 0 and Domains is nil, partitions the network
	// automatically into up to that many AS-closed domains.
	AutoDomains int
}

// Report is the outcome of a verification run.
type Report struct {
	Violations []Violation
	Holds      bool
	// Engine-specific statistics.
	Elapsed       time.Duration
	RouteSimTime  time.Duration
	FlowsTotal    int
	FlowsExecuted int
	// Scenarios is the number of concrete scenarios simulated
	// (baselines only; EngineYU covers all scenarios in one run).
	Scenarios int
	// MTBDDNodes is the number of live MTBDD nodes after verification
	// (EngineYU only, the Fig 16 metric).
	MTBDDNodes int
	// LinkStats has one entry per checked directed link (EngineYU only).
	LinkStats []LinkCheckStat
	// Incomplete is set when the run was cut short (cancellation,
	// deadline, node budget) or checks were skipped while degrading.
	// Holds is never true on an incomplete report.
	Incomplete bool
	// Unchecked lists directed links whose load checks did not complete;
	// their verdicts are unknown.
	Unchecked []DirLinkID
	// UncheckedDelivered lists delivered-bound prefixes whose checks did
	// not complete.
	UncheckedDelivered []netip.Prefix
	// DegradedFlows names flows verified by the bounded concrete
	// fallback instead of symbolic execution (BudgetDegrade only).
	DegradedFlows []string
	// Sched summarizes the class execution (EngineYU only): classes
	// executed and global-equivalence dedup hits.
	Sched SchedStats
	// Modular summarizes the compositional pipeline when the run was
	// domain-decomposed (VerifyOptions.Domains / AutoDomains); nil on
	// monolithic runs and when composition fell back wholesale.
	Modular *ModularStats
}

// Verify runs k-failure TLP verification.
func (n *Network) Verify(opts VerifyOptions) (*Report, error) {
	start := time.Now()
	switch opts.Engine {
	case EngineYU:
		return n.verifyYU(opts, start)
	case EngineEnumerate:
		k, mode, flows := n.resolve(opts)
		return n.verifyEnumerate(k, mode, flows, opts, start)
	case EngineShortestPath:
		k, mode, flows := n.resolve(opts)
		if mode != topo.FailLinks {
			return nil, fmt.Errorf("yu: the shortest-path baseline supports link failures only")
		}
		model := spath.NewModel(n.spec.Net, n.spec.Configs, flows)
		factor := opts.OverloadFactor
		if factor <= 0 {
			factor = 1
		}
		rep := model.Verify(k, spath.Options{OverloadFactor: factor, Ctx: opts.Ctx})
		out := &Report{
			Holds:      rep.Holds,
			Elapsed:    time.Since(start),
			FlowsTotal: len(flows),
			Scenarios:  rep.Scenarios,
		}
		for _, v := range rep.Violations {
			out.Violations = append(out.Violations, Violation{
				Kind: "link-load", Link: v.Link, Value: v.Value, Max: v.Limit,
				FailedLinks: v.FailedLinks,
			})
		}
		if rep.Err != nil {
			n.markAllUnchecked(out, n.spec.Props, n.spec.Delivered, factor)
		}
		return out, rep.Err
	}
	return nil, fmt.Errorf("yu: unknown engine %d", opts.Engine)
}

// resolve applies the run-shape overrides of opts to the spec's failure
// budget, failure mode, and flows.
func (n *Network) resolve(opts VerifyOptions) (k int, mode FailureMode, flows []Flow) {
	k, mode, flows = n.spec.K, n.spec.Mode, n.spec.Flows
	if opts.K > 0 || opts.KSet {
		k = opts.K
	}
	if opts.ModeSet {
		mode = opts.Mode
	}
	if opts.Flows != nil {
		flows = opts.Flows
	}
	return k, mode, flows
}

// verifyEnumerate runs the Jingubang-style concrete baseline. It is both
// the EngineEnumerate entry point and rung 4 of the degradation ladder
// (the whole-run fallback when even symbolic route simulation cannot fit
// its node budget).
func (n *Network) verifyEnumerate(k int, mode FailureMode, flows []Flow, opts VerifyOptions, start time.Time) (*Report, error) {
	sp := opts.Obs.Span("enumerate")
	defer sp.End()
	sim := concrete.NewSim(n.spec.Net, n.spec.Configs)
	rep := sim.VerifyKFailures(flows, k, mode, concrete.EnumOptions{
		OverloadFactor: opts.OverloadFactor,
		Bounds:         n.spec.Props,
		Delivered:      n.spec.Delivered,
		Incremental:    opts.Incremental,
		Ctx:            opts.Ctx,
	})
	out := &Report{
		Holds:      rep.Holds,
		Elapsed:    time.Since(start),
		FlowsTotal: len(flows),
		Scenarios:  rep.Scenarios,
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, Violation{
			Kind: v.Kind, Link: v.Link, Prefix: v.Prefix, Value: v.Value,
			Min: v.Min, Max: v.Max,
			FailedLinks: v.FailedLinks, FailedRouters: v.FailedRouters,
		})
	}
	if rep.Err != nil {
		n.markAllUnchecked(out, n.spec.Props, n.spec.Delivered, opts.OverloadFactor)
	}
	return out, rep.Err
}

// degradeWhole is rung 4 of the degradation ladder: the node budget could
// not hold the symbolic run (or its checks), so the whole run falls back
// to bounded concrete enumeration and every flow is reported degraded.
func (n *Network) degradeWhole(k int, mode FailureMode, flows []Flow, opts VerifyOptions, start time.Time, routeTime time.Duration) (*Report, error) {
	out, err := n.verifyEnumerate(k, mode, flows, opts, start)
	if out != nil {
		for _, f := range flows {
			out.DegradedFlows = append(out.DegradedFlows, f.String())
		}
		out.RouteSimTime = routeTime
	}
	return out, err
}

// markAllUnchecked records every requested check target as unchecked on
// a report whose checks could not run (or cannot be trusted to have
// covered every scenario).
func (n *Network) markAllUnchecked(out *Report, bounds []LoadBound, delivered []DeliveredBound, overloadFactor float64) {
	seen := make(map[DirLinkID]bool)
	addLink := func(l DirLinkID) {
		if !seen[l] {
			seen[l] = true
			out.Unchecked = append(out.Unchecked, l)
		}
	}
	for _, b := range bounds {
		dirs := []topo.Direction{topo.AtoB, topo.BtoA}
		if b.DirSpecified {
			dirs = []topo.Direction{b.Dir}
		}
		for _, d := range dirs {
			addLink(topo.MakeDirLinkID(b.Link, d))
		}
	}
	if overloadFactor > 0 {
		for li := 0; li < n.spec.Net.NumLinks(); li++ {
			for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
				addLink(topo.MakeDirLinkID(topo.LinkID(li), d))
			}
		}
	}
	for _, b := range delivered {
		out.UncheckedDelivered = append(out.UncheckedDelivered, b.Prefix)
	}
	out.Incomplete = true
	out.Holds = false
}

// governed reports whether err is a governance abort (cancellation,
// deadline, node budget), which yields a partial answer rather than none.
func governed(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrNodeBudget)
}

// Prepared is one symbolic run of a network — route simulation plus
// symbolic execution of every flow, the paper's §4 pipeline — kept ready
// to answer any number of property queries: Report checks legacy
// properties, Portfolio evaluates TLP portfolios, and neither repeats
// route simulation or execution. Both methods take the handle's one
// query slot (an MTBDD manager is single-threaded), so a Prepared is safe
// for concurrent use; a query waits for the slot only as long as its
// context allows. It holds its manager's nodes for as long as it is
// referenced.
type Prepared struct {
	n     *Network
	reg   *Metrics
	k     int
	mode  FailureMode
	flows []Flow
	start time.Time
	// routeTime is the route-simulation time, or the whole compose build
	// time on a modular run.
	routeTime time.Duration
	// modular is the compositional build's summary; nil on monolithic
	// runs.
	modular *ModularStats

	// slot is the one-query semaphore: a query holds it while it uses
	// the manager.
	slot chan struct{}
	m    *mtbdd.Manager
	eng  *core.Engine   // nil when the run was cut short before execution
	ver  *core.Verifier // nil when the run was cut short before execution
	// err is the governance error (cancellation, deadline, node budget)
	// that cut route simulation or execution short.
	err error
	// recorded is the manager's stats at its last obs record, so each
	// query records only its own work.
	recorded obs.ManagerStats
}

// Prepare runs route simulation and symbolic execution once under opts
// (EngineYU only; the K/Mode/Flows overrides, Workers, governance, Obs,
// STFCache, Domains and AutoDomains are honored as in Verify)
// and returns the handle that answers queries from that run. A run cut
// short by governance still yields a handle: Err reports why, and every
// query answers with unchecked targets and that error. Other failures
// return a nil handle and the error.
func (n *Network) Prepare(opts VerifyOptions) (*Prepared, error) {
	if opts.Engine != EngineYU {
		return nil, fmt.Errorf("yu: Prepare supports the yu engine only")
	}
	return n.prepare(opts, time.Now())
}

// prepare is the one setup path of the symbolic engine: resolve the run
// shape, then build the verifier — compositionally when opts names
// domains (DESIGN.md §17), else by whole-network route simulation and
// execution. Reports are byte-identical either way.
func (n *Network) prepare(opts VerifyOptions, start time.Time) (*Prepared, error) {
	k, mode, flows := n.resolve(opts)
	p := &Prepared{n: n, reg: opts.Obs, k: k, mode: mode, flows: flows, start: start,
		slot: make(chan struct{}, 1)}
	budget, checkK := k, 0
	if opts.DisableKReduce {
		budget, checkK = -1, k
	}
	if opts.Domains != nil || opts.AutoDomains > 0 {
		built, err := n.prepareModular(p, opts, budget, checkK)
		if err != nil {
			return nil, err
		}
		if built {
			return p, nil
		}
	}
	p.m = mtbdd.New()
	fv := routesim.NewFailVars(p.m, n.spec.Net, mode, budget)
	if opts.MaxNodes > 0 {
		p.m.SetNodeBudget(opts.MaxNodes)
	}
	rs, err := routesim.RunContext(opts.Ctx, fv, n.spec.Configs)
	p.routeTime = time.Since(start)
	opts.Obs.AddPhase("routesim", p.routeTime)
	if err != nil {
		if !governed(err) {
			return nil, err
		}
		p.err = err
		return p, nil
	}
	p.eng = core.NewEngine(rs, core.Options{
		DisableLinkLocalEquiv: opts.DisableLinkLocalEquiv,
		DisableGlobalEquiv:    opts.DisableGlobalEquiv,
		CheckK:                checkK,
		Ctx:                   opts.Ctx,
		NodeBudget:            opts.MaxNodes,
		OnBudget:              opts.OnBudget,
		Configs:               n.spec.Configs,
		Obs:                   opts.Obs,
		STFCache:              opts.STFCache,
	})
	execSpan := opts.Obs.Span("execute")
	p.ver = core.NewParallelVerifier(p.eng, flows, opts.Workers)
	execSpan.End()
	p.err = p.ver.Err()
	return p, nil
}

// prepareModular is prepare's compositional branch: partition the
// topology into AS-closed domains and build the verifier through
// internal/compose. It reports built=false when the composition cannot
// handle the input (incomposable configs, a budget the domains could not
// hold); the whole-network branch then reproduces the verdict or the
// error. An invalid partition is a configuration error; a canceled or
// expired build keeps its typed error on the handle.
func (n *Network) prepareModular(p *Prepared, opts VerifyOptions, budget, checkK int) (built bool, err error) {
	var part *topo.Partition
	if opts.Domains != nil {
		part, err = topo.NewPartition(n.spec.Net, opts.Domains)
	} else {
		part, err = topo.AutoPartition(n.spec.Net, opts.AutoDomains)
	}
	if err != nil {
		return false, err
	}
	composeStart := time.Now()
	b, err := compose.Build(n.spec.Net, n.spec.Configs, part, p.flows, compose.Options{
		K:                     budget,
		CheckK:                checkK,
		Mode:                  p.mode,
		Workers:               opts.Workers,
		MaxNodes:              opts.MaxNodes,
		OnBudget:              opts.OnBudget,
		Ctx:                   opts.Ctx,
		Obs:                   opts.Obs,
		DisableLinkLocalEquiv: opts.DisableLinkLocalEquiv,
		DisableGlobalEquiv:    opts.DisableGlobalEquiv,
	})
	p.routeTime = time.Since(composeStart)
	opts.Obs.AddPhase("compose", p.routeTime)
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) {
		p.m, p.err = mtbdd.New(), err
		return true, nil
	}
	if err != nil {
		return false, nil
	}
	p.eng, p.ver, p.m = b.Engine, b.Verifier, b.Engine.Manager()
	p.modular = &b.Stats
	p.err = p.ver.Err()
	return true, nil
}

// Err returns the governance error that cut the prepared run short, or
// nil if route simulation and execution completed.
func (p *Prepared) Err() error { return p.err }

// acquire takes the handle's query slot, waiting at most until ctx is
// done (a nil ctx waits unbounded). It returns the context's typed error
// (ErrCanceled / ErrDeadline) when the query gives up.
func (p *Prepared) acquire(ctx context.Context) error {
	if ctx == nil {
		p.slot <- struct{}{}
		return nil
	}
	select {
	case p.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		return govern.Check(ctx)
	}
}

// release records the query's manager work into the run's metrics
// registry and frees the query slot.
func (p *Prepared) release() {
	core.RecordManagerSince(p.reg, "primary", p.m, &p.recorded)
	<-p.slot
}

// Report checks load bounds, delivered bounds and, when overloadFactor >
// 0, the all-links overload property against the prepared run: the
// report Verify renders for those properties. ctx bounds the checks and
// the wait for the handle (nil leaves both unbounded). A run cut short
// in Prepare, or a query that gave up waiting, yields a partial report
// with every requested target unchecked, plus the typed error.
func (p *Prepared) Report(ctx context.Context, bounds []LoadBound, delivered []DeliveredBound, overloadFactor float64) (*Report, error) {
	if err := p.acquire(ctx); err != nil {
		return p.unchecked(bounds, delivered, overloadFactor), err
	}
	defer p.release()
	if p.ver == nil {
		out := p.unchecked(bounds, delivered, overloadFactor)
		out.MTBDDNodes = p.m.Stats().Live
		return out, p.err
	}
	p.eng.SetContext(ctx)
	checkSpan := p.reg.Span("check")
	rep, err := p.ver.Run(bounds, delivered, overloadFactor)
	checkSpan.End()
	out := newReport(rep, p.ver, p.m, p.start, p.routeTime)
	if p.modular != nil {
		stats := *p.modular
		out.Modular = &stats
	}
	return out, err
}

// unchecked is the report of a query that cannot run its checks: every
// requested target is unchecked.
func (p *Prepared) unchecked(bounds []LoadBound, delivered []DeliveredBound, overloadFactor float64) *Report {
	out := &Report{
		Elapsed:      time.Since(p.start),
		RouteSimTime: p.routeTime,
		FlowsTotal:   len(p.flows),
	}
	p.n.markAllUnchecked(out, bounds, delivered, overloadFactor)
	return out
}

// Portfolio evaluates a property portfolio with the batch TLP engine
// against the prepared run: each directed link's load is aggregated and
// terminal-scanned once however many properties ride on it. ctx bounds
// the evaluation and the wait for the handle (nil leaves both
// unbounded). Compile errors return a nil result. A run cut short in
// Prepare, an evaluation cut short by ctx, or a query that gave up
// waiting returns the typed error with a partial result whose undecided
// properties are StatusUnchecked.
func (p *Prepared) Portfolio(ctx context.Context, props []TLProp) (*TLPResult, error) {
	port, err := tlp.Compile(p.n.spec.Net, p.flows, props)
	if err != nil {
		return nil, err
	}
	if err := p.acquire(ctx); err != nil {
		return tlp.AllUnchecked(props), err
	}
	defer p.release()
	if p.err != nil {
		return tlp.AllUnchecked(props), p.err
	}
	p.eng.SetContext(ctx)
	checkSpan := p.reg.Span("check")
	defer checkSpan.End()
	return port.Eval(p.ver, p.reg)
}

// newReport renders a verifier's check report as the public Report.
func newReport(rep *core.Report, ver *core.Verifier, m *mtbdd.Manager, start time.Time, routeTime time.Duration) *Report {
	return &Report{
		Violations:         rep.Violations,
		Holds:              rep.Holds,
		Elapsed:            time.Since(start),
		RouteSimTime:       routeTime,
		FlowsTotal:         rep.FlowsTotal,
		FlowsExecuted:      rep.FlowsExecuted,
		MTBDDNodes:         m.Stats().Live,
		LinkStats:          rep.LinkStats,
		Incomplete:         rep.Incomplete,
		Unchecked:          rep.Unchecked,
		UncheckedDelivered: rep.UncheckedDelivered,
		DegradedFlows:      rep.DegradedFlows,
		Sched:              ver.SchedStats(),
	}
}

// VerifyPortfolio evaluates a property portfolio with the batch TLP
// engine (EngineYU only): one symbolic execution serves every property,
// each directed link's load aggregated and terminal-scanned exactly once
// however many properties ride on it. Options are honored as in Verify
// (K/Mode/Flows overrides, Workers, governance, Obs, STFCache, Domains);
// the portfolio itself replaces the spec's legacy properties. The result
// is byte-stable across worker counts and partitions
// (canon.FormatPortfolio). It is
// Prepare followed by one Portfolio query.
//
// Like Verify, a governed abort returns the typed error together with a
// partial result whose undecided properties are StatusUnchecked.
func (n *Network) VerifyPortfolio(props []TLProp, opts VerifyOptions) (*TLPResult, error) {
	p, err := n.prepare(opts, time.Now())
	if err != nil {
		return nil, err
	}
	return p.Portfolio(opts.Ctx, props)
}

// verifyYU is the symbolic engine's Verify: prepare, one Report query,
// and rung 4 of the degradation ladder when the budget could not hold
// the symbolic run.
func (n *Network) verifyYU(opts VerifyOptions, start time.Time) (*Report, error) {
	p, err := n.prepare(opts, start)
	if err != nil {
		return nil, err
	}
	degrade := opts.OnBudget == BudgetDegrade
	if p.ver == nil && degrade && errors.Is(p.err, ErrNodeBudget) {
		// The budget cannot even hold symbolic route simulation.
		return n.degradeWhole(p.k, p.mode, p.flows, opts, start, p.routeTime)
	}
	rep, err := p.Report(opts.Ctx, n.spec.Props, n.spec.Delivered, opts.OverloadFactor)
	if err == nil && rep.Incomplete && degrade && opts.MaxNodes > 0 {
		// The budget let execution through (possibly via per-flow
		// fallbacks) but was too tight for the aggregation checks, which
		// were skipped: re-verify the whole run concretely so the degrade
		// policy always renders a complete verdict.
		return n.degradeWhole(p.k, p.mode, p.flows, opts, start, p.routeTime)
	}
	return rep, err
}
