package core

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Violation is one TLP violation: a failure scenario (within the budget)
// under which a bound does not hold, together with the offending value.
type Violation struct {
	// Kind is "link-load" or "delivered".
	Kind string
	// Link is the directed link for link-load violations.
	Link topo.DirLinkID
	// Prefix is the destination prefix for delivered violations.
	Prefix netip.Prefix
	// Value is the traffic load (Gbps) in the violating scenario.
	Value float64
	// Min and Max are the violated bounds.
	Min, Max float64
	// FailedLinks / FailedRouters describe the witness scenario.
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// Describe renders the violation using topology names.
func (v *Violation) Describe(net *topo.Network) string {
	var sb strings.Builder
	switch v.Kind {
	case "link-load":
		fmt.Fprintf(&sb, "link %s carries %.6g Gbps (bounds [%.6g, %.6g])",
			net.DirLinkName(v.Link), v.Value, v.Min, v.Max)
	case "delivered":
		fmt.Fprintf(&sb, "delivered traffic to %s is %.6g Gbps (bounds [%.6g, %.6g])",
			v.Prefix, v.Value, v.Min, v.Max)
	}
	sb.WriteString(" when ")
	if len(v.FailedLinks) == 0 && len(v.FailedRouters) == 0 {
		sb.WriteString("no element fails")
		return sb.String()
	}
	var parts []string
	for _, l := range v.FailedLinks {
		parts = append(parts, "link "+net.LinkName(l))
	}
	for _, r := range v.FailedRouters {
		parts = append(parts, "router "+net.Router(r).Name)
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteString(" fail")
	if len(parts) == 1 {
		sb.WriteString("s")
	}
	return sb.String()
}

// LinkCheckStat records per-check verification effort, the data behind
// the paper's Figures 13 and 14. Most entries describe a directed-link
// load check; delivered-bound checks are recorded too (Kind "delivered"),
// so benchmark figures cover both property kinds.
type LinkCheckStat struct {
	// Kind is "" for a link-load check (the common case) or "delivered"
	// for a delivered-traffic bound.
	Kind string
	Link topo.DirLinkID
	// Prefix is the destination prefix of a delivered-bound check.
	Prefix netip.Prefix
	// Flows is the number of flows with nonzero traffic on the link (or,
	// for delivered checks, destined inside the prefix).
	Flows int
	// Classes is the number of link-local equivalence classes among them
	// (equals Flows when the reduction is disabled).
	Classes int
	// Elapsed is the time spent aggregating and checking.
	Elapsed time.Duration
}

// Report is the outcome of a verification run.
type Report struct {
	Violations []Violation
	// Holds is true when no bound was violated in any scenario within
	// the failure budget.
	Holds bool
	// LinkStats has one entry per checked directed link.
	LinkStats []LinkCheckStat
	// FlowsExecuted is the number of symbolic executions performed
	// (after global equivalence merging).
	FlowsExecuted int
	// FlowsTotal is the number of input flows.
	FlowsTotal int
	// Incomplete is set when the run was cut short (cancellation,
	// deadline, budget breach) or some checks were skipped under the
	// degrade policy. Holds is never true on an incomplete report.
	Incomplete bool
	// Unchecked lists the directed links whose load checks did not run
	// to completion; their verdicts are unknown.
	Unchecked []topo.DirLinkID
	// UncheckedDelivered lists delivered-bound prefixes whose checks did
	// not complete.
	UncheckedDelivered []netip.Prefix
	// DegradedFlows names the flows whose STFs were rebuilt by the
	// bounded concrete fallback instead of symbolic execution.
	DegradedFlows []string

	// uncheckedLinks / uncheckedPfx deduplicate the Unchecked and
	// UncheckedDelivered lists without rescanning them per mark.
	uncheckedLinks map[topo.DirLinkID]struct{}
	uncheckedPfx   map[netip.Prefix]struct{}
}

// markUnchecked records a directed link as unchecked (deduplicated via a
// set so repeated marks stay O(1), preserving first-marked order) and
// flags the report incomplete.
func (rep *Report) markUnchecked(l topo.DirLinkID) {
	rep.Incomplete = true
	if rep.uncheckedLinks == nil {
		rep.uncheckedLinks = make(map[topo.DirLinkID]struct{}, len(rep.Unchecked)+1)
		for _, u := range rep.Unchecked {
			rep.uncheckedLinks[u] = struct{}{}
		}
	}
	if _, dup := rep.uncheckedLinks[l]; dup {
		return
	}
	rep.uncheckedLinks[l] = struct{}{}
	rep.Unchecked = append(rep.Unchecked, l)
}

// markUncheckedDelivered records a delivered-bound prefix as unchecked,
// deduplicated the same way.
func (rep *Report) markUncheckedDelivered(pfx netip.Prefix) {
	rep.Incomplete = true
	if rep.uncheckedPfx == nil {
		rep.uncheckedPfx = make(map[netip.Prefix]struct{}, len(rep.UncheckedDelivered)+1)
		for _, u := range rep.UncheckedDelivered {
			rep.uncheckedPfx[u] = struct{}{}
		}
	}
	if _, dup := rep.uncheckedPfx[pfx]; dup {
		return
	}
	rep.uncheckedPfx[pfx] = struct{}{}
	rep.UncheckedDelivered = append(rep.UncheckedDelivered, pfx)
}

// Verifier aggregates per-flow STFs into per-link symbolic traffic loads
// and checks TLPs (paper §4.5, Theorem 5.1).
type Verifier struct {
	e     *Engine
	flows []topo.Flow
	stfs  []*FlowSTF
	// workers > 1 enables the concurrent link-checking pool (see
	// CheckOverloadAll); 1 (or 0) is the exact sequential legacy path.
	workers int
	// err is the first fatal error hit while executing flows (cancel,
	// deadline, unrecoverable budget breach, contained panic). Run
	// surfaces it with a partial report.
	err error
	// kreduceT, when non-nil, accumulates the wall time spent in the
	// KREDUCE calls of per-link aggregation (obs "check/kreduce"). It is
	// nil when no obs registry is attached, keeping the clock off the
	// uninstrumented path.
	kreduceT *obs.Timer
	// classes are the global-equivalence classes in execution order
	// (v.stfs is parallel to it); classOf maps each input flow to its
	// class, fanning the shared verdict/STF back out to the members.
	classes []flowClass
	classOf []int
	// measured[i] is the created-node count of class i's execution — the
	// cost model's training signal, exported by CostHints.
	measured []float64
	// sched summarizes the execution phase's scheduling (see SchedStats).
	sched SchedStats
}

// FlowSTFOf returns the STF of input flow i: the executed representative
// of its equivalence class (§6 fan-out). All member flows of a class
// share one *FlowSTF. Returns nil if the class was never executed (a
// governed run cut short).
func (v *Verifier) FlowSTFOf(i int) *FlowSTF {
	if i < 0 || i >= len(v.classOf) || v.classOf[i] >= len(v.stfs) {
		return nil
	}
	return v.stfs[v.classOf[i]]
}

// Err returns the fatal error recorded during flow execution, if any.
func (v *Verifier) Err() error { return v.err }

// NewVerifier executes all flows symbolically (applying global flow
// equivalence unless disabled) and returns a Verifier ready to check
// properties. Execution is governed: a cancellation or an unrecoverable
// budget breach stops the loop and is surfaced from Run (or Err) with
// the flows executed so far intact.
func NewVerifier(e *Engine, flows []topo.Flow) *Verifier {
	v := newClassVerifier(e, flows, 1)
	v.buildClasses(nil)
	return v
}

// newClassVerifier classifies flows on e into global-equivalence classes
// and returns a Verifier with no class built yet: every constructor
// starts here and ends in buildClasses.
func newClassVerifier(e *Engine, flows []topo.Flow, workers int) *Verifier {
	v := &Verifier{e: e, flows: flows, workers: workers,
		kreduceT: e.opts.Obs.Timer("check/kreduce")}
	v.classes, v.classOf = classifyFlows(e, flows)
	v.measured = make([]float64, len(v.classes))
	v.sched = SchedStats{Workers: 1, Classes: len(v.classes), DedupHits: dedupHits(v.classes)}
	e.opts.Obs.Counter("sched.class_dedup_hits").Add(int64(v.sched.DedupHits))
	return v
}

// buildClasses is the one per-class build loop. It walks the classes in
// class order — the order every report accumulates in — and puts each
// class's STF into the engine's manager. pre is a per-class slot array
// (nil means no slots): a non-nil slot holds a class already executed in
// another manager (a shard worker's, a compose domain's) and is imported;
// an empty slot is served by the STFCache or executed here. Both go
// through the engine's budget ladder. The first fatal error stops the
// loop and is kept for Run; the classes built so far stay intact.
func (v *Verifier) buildClasses(pre []*FlowSTF) {
	flowC := v.e.opts.Obs.Counter("exec.flows_executed")
	for i := range v.classes {
		s, err := v.buildClass(i, pre, flowC)
		if err != nil {
			v.err = err
			break
		}
		v.stfs = append(v.stfs, s)
	}
}

// buildClass builds class i's STF in the engine's manager (see
// buildClasses).
func (v *Verifier) buildClass(i int, pre []*FlowSTF, flowC *obs.Counter) (*FlowSTF, error) {
	e, rep := v.e, v.classes[i].rep
	if i < len(pre) && pre[i] != nil {
		src := pre[i]
		return e.governed(rep, v.stfs, func() *FlowSTF { return importSTF(e.m, src) })
	}
	before := e.m.Stats().Created
	cache := e.opts.STFCache
	if cache != nil {
		if s, ok := cache.Lookup(e, rep); ok {
			// A hit is indistinguishable from an execution: the cache
			// materialized canonical nodes in this manager, the class
			// counts as executed (FlowsExecuted is part of the report
			// byte-identity contract), and the replay's created-node
			// delta feeds the cost model like a measurement would.
			v.measured[i] = float64(e.m.Stats().Created - before)
			return s, nil
		}
	}
	s, err := e.executeGoverned(rep, v.stfs)
	if err != nil {
		return nil, err
	}
	v.measured[i] = float64(e.m.Stats().Created - before)
	flowC.Inc()
	if cache != nil {
		cache.Store(e, rep, s)
	}
	return s, nil
}

// FlowSTFs exposes the executed (merged) flow results.
func (v *Verifier) FlowSTFs() []*FlowSTF { return v.stfs }

// LinkLoad computes the symbolic traffic load τ_l of a directed link by
// aggregating all flows, using link-local equivalence classes unless
// disabled: flows whose STFs are the same MTBDD node (hash-consing makes
// this a pointer comparison) are summed as volumes first, so the number of
// MTBDD additions is the number of classes, not the number of flows.
//
// The returned node remains valid until the next Verifier method that may
// trigger a managed GC (another LinkLoad or an overload check).
func (v *Verifier) LinkLoad(l topo.DirLinkID) (*mtbdd.Node, LinkCheckStat) {
	return v.primaryScan().linkLoad(l)
}

// loadEpsilon absorbs floating-point noise from ECMP fraction arithmetic
// when comparing loads against bounds.
const loadEpsilon = 1e-6

// scenarioWitness converts a violating assignment into sorted failed
// link/router lists using any FailVars with the canonical variable layout
// (the primary one or a shard's — they are identical by construction).
func scenarioWitness(fv *routesim.FailVars, a mtbdd.Assignment) (links []topo.LinkID, routers []topo.RouterID) {
	for _, fvar := range a.FailedVars() {
		if l, r, isLink := fv.VarElement(fvar); isLink {
			links = append(links, l)
		} else {
			routers = append(routers, r)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	return links, routers
}

// ViolatingScenarios enumerates up to limit distinct failure scenarios
// (as witness link/router sets) under which the symbolic load tau falls
// outside [min, max]. Each returned scenario corresponds to one violating
// MTBDD path, so it contains at most k failures (Lemma 2).
func (v *Verifier) ViolatingScenarios(tau *mtbdd.Node, min, max float64, limit int) []Violation {
	lo, hi := min-loadEpsilon, max+loadEpsilon
	var out []Violation
	v.e.m.ForEachPath(tau, func(a mtbdd.Assignment, val float64) bool {
		if val >= lo && val <= hi {
			return true
		}
		links, routers := scenarioWitness(v.e.fv, a)
		out = append(out, Violation{
			Kind: "link-load", Value: val, Min: min, Max: max,
			FailedLinks: links, FailedRouters: routers,
		})
		return len(out) < limit
	})
	return out
}

func boundDirs(b topo.LoadBound) []topo.Direction {
	if b.DirSpecified {
		return []topo.Direction{b.Dir}
	}
	return []topo.Direction{topo.AtoB, topo.BtoA}
}

// checkBoundDir verifies one explicit load bound in one direction: one
// unconditional portfolio check on the link's load (ScanLink).
func (v *Verifier) checkBoundDir(l topo.DirLinkID, b topo.LoadBound, rep *Report) {
	res, stat, _ := v.ScanLink(l, []LinkCheck{{Min: b.Min, Max: b.Max, CondVar: -1}})
	rep.LinkStats = append(rep.LinkStats, stat)
	if r := res[0]; r.Violated {
		rep.Violations = append(rep.Violations, Violation{
			Kind: "link-load", Link: l, Value: r.Value, Min: b.Min, Max: b.Max,
			FailedLinks: r.FailedLinks, FailedRouters: r.FailedRouters,
		})
	}
}

// CheckDelivered verifies one delivered-traffic bound: one unconditional
// portfolio check on the prefix's delivered load (ScanDelivered).
func (v *Verifier) CheckDelivered(b topo.DeliveredBound, rep *Report) {
	res, stat, _ := v.ScanDelivered(b.Prefix, []LinkCheck{{Min: b.Min, Max: b.Max, CondVar: -1}})
	rep.LinkStats = append(rep.LinkStats, stat)
	if r := res[0]; r.Violated {
		rep.Violations = append(rep.Violations, Violation{
			Kind: "delivered", Prefix: b.Prefix, Value: r.Value, Min: b.Min, Max: b.Max,
			FailedLinks: r.FailedLinks, FailedRouters: r.FailedRouters,
		})
	}
}

// CheckOverloadAll verifies "no directed link carries more than
// factor × capacity" on every link of the network — the paper's daily P2
// check. factor 1 means the raw capacity; the motivating example's
// "overloaded at ≥95 Gbps on 100 Gbps links" is factor 0.95 (an open
// bound approximated by a tiny epsilon below).
//
// Unless disabled, the check applies the §6 pruning heuristics: a link
// whose summed per-class maxima cannot reach the limit is passed without
// any MTBDD aggregation, and during aggregation the scan stops as soon as
// the accumulated maximum proves a violation (loads are non-negative, so
// partial sums only grow) or the remaining mass cannot reach the limit.
func (v *Verifier) CheckOverloadAll(factor float64, rep *Report) {
	if v.workers > 1 {
		if err := v.checkOverloadAllParallel(factor, rep); err != nil && v.err == nil {
			v.err = err
		}
		return
	}
	net := v.e.net
	for li := 0; li < net.NumLinks(); li++ {
		link := net.Link(topo.LinkID(li))
		limit := link.Capacity * factor
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			l := topo.MakeDirLinkID(link.ID, d)
			v.checkOverloadDir(l, limit, rep)
		}
	}
}

// checkOverloadDir checks one directed link against an upper limit via the
// shared scan core (full or pruned per the early-termination ablation).
func (v *Verifier) checkOverloadDir(l topo.DirLinkID, limit float64, rep *Report) {
	stat, viols := v.primaryScan().checkLink(l, limit)
	rep.LinkStats = append(rep.LinkStats, stat)
	rep.Violations = append(rep.Violations, viols...)
}

// checkItem is one unit of governed property checking: a single
// directed-link load check or a single delivered bound.
type checkItem struct {
	kind  string // "bound", "delivered", "overload"
	link  topo.DirLinkID
	bound topo.LoadBound
	db    topo.DeliveredBound
	limit float64
}

// overloadItems lists one check item per directed link for the
// all-links overload property.
func (v *Verifier) overloadItems(factor float64) []checkItem {
	net := v.e.net
	items := make([]checkItem, 0, 2*net.NumLinks())
	for li := 0; li < net.NumLinks(); li++ {
		link := net.Link(topo.LinkID(li))
		limit := link.Capacity * factor
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			items = append(items, checkItem{kind: "overload", link: topo.MakeDirLinkID(link.ID, d), limit: limit})
		}
	}
	return items
}

// checkItems flattens a Run request into its individual check targets.
func (v *Verifier) checkItems(bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64, includeOverload bool) []checkItem {
	var items []checkItem
	for _, b := range bounds {
		for _, d := range boundDirs(b) {
			items = append(items, checkItem{kind: "bound", link: topo.MakeDirLinkID(b.Link, d), bound: b})
		}
	}
	for _, b := range delivered {
		items = append(items, checkItem{kind: "delivered", db: b})
	}
	if overloadFactor > 0 && includeOverload {
		items = append(items, v.overloadItems(overloadFactor)...)
	}
	return items
}

// markItemsUnchecked records every item's target as unchecked.
func markItemsUnchecked(rep *Report, items []checkItem) {
	for _, it := range items {
		if it.kind == "delivered" {
			rep.markUncheckedDelivered(it.db.Prefix)
		} else {
			rep.markUnchecked(it.link)
		}
	}
}

// runGoverned runs one check through the budget ladder, appending its
// stats and violations to rep only when the check completes. A breached
// check is retried once after an engine-wide GC; if it still breaches
// under the degrade policy it is skipped (the caller marks the target
// unchecked). Other errors — cancellation, deadline, breach under the
// fail policy — are returned.
//
// The check writes into a scratch report because the pruned overload
// check appends its stat before the range check runs: merging only on
// success keeps a retried check from appearing twice.
func (v *Verifier) runGoverned(rep *Report, check func(*Report)) (skipped bool, err error) {
	if err := govern.Check(v.e.opts.Ctx); err != nil {
		return false, err
	}
	attempt := func() error {
		scratch := &Report{}
		err := mtbdd.Guard(func() { check(scratch) })
		if err == nil {
			rep.Violations = append(rep.Violations, scratch.Violations...)
			rep.LinkStats = append(rep.LinkStats, scratch.LinkStats...)
		}
		return err
	}
	err = attempt()
	if err == nil || !errors.Is(err, govern.ErrNodeBudget) {
		return false, err
	}
	v.e.m.GC(v.e.roots(stfRoots(nil, v.stfs)))
	err = attempt()
	if err == nil || !errors.Is(err, govern.ErrNodeBudget) {
		return false, err
	}
	if v.e.opts.OnBudget != BudgetDegrade {
		return false, err
	}
	return true, nil
}

// runItem dispatches one check item through runGoverned.
func (v *Verifier) runItem(it checkItem, rep *Report) (skipped bool, err error) {
	return v.runGoverned(rep, func(r *Report) {
		switch it.kind {
		case "bound":
			v.checkBoundDir(it.link, it.bound, r)
		case "delivered":
			v.CheckDelivered(it.db, r)
		default:
			v.checkOverloadDir(it.link, it.limit, r)
		}
	})
}

// Run checks the given explicit bounds (either slice may be empty) and, if
// overloadFactor > 0, the all-links overload property.
//
// Run is governed: on cancellation, deadline expiry, or a node-budget
// breach under the fail policy it returns the typed error together with
// a partial report — completed checks keep their verdicts and stats,
// and every target that did not complete is listed in Unchecked /
// UncheckedDelivered with Incomplete set. Under the degrade policy a
// check that cannot fit the budget is skipped the same way but without
// an error. Holds is never true on an incomplete report.
func (v *Verifier) Run(bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64) (*Report, error) {
	rep := &Report{FlowsExecuted: len(v.stfs), FlowsTotal: len(v.flows)}
	for _, s := range v.stfs {
		if s != nil && s.Degraded {
			rep.DegradedFlows = append(rep.DegradedFlows, s.Flow.String())
		}
	}
	err := v.err
	if err != nil {
		// Flow execution already failed: no check can run.
		markItemsUnchecked(rep, v.checkItems(bounds, delivered, overloadFactor, true))
	} else {
		err = v.runChecks(rep, bounds, delivered, overloadFactor)
	}
	rep.Holds = len(rep.Violations) == 0 && !rep.Incomplete
	return rep, err
}

func (v *Verifier) runChecks(rep *Report, bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64) error {
	parallelOverload := overloadFactor > 0 && v.workers > 1
	items := v.checkItems(bounds, delivered, overloadFactor, !parallelOverload)
	for i, it := range items {
		skipped, err := v.runItem(it, rep)
		if err != nil {
			markItemsUnchecked(rep, items[i:])
			if parallelOverload {
				markItemsUnchecked(rep, v.overloadItems(overloadFactor))
			}
			return err
		}
		if skipped {
			markItemsUnchecked(rep, items[i:i+1])
		}
	}
	if parallelOverload {
		return v.checkOverloadAllParallel(overloadFactor, rep)
	}
	return nil
}
