// The one checker core every path scans through. The sequential verifier,
// the parallel shard checkers, and the portfolio engine (internal/tlp) all
// aggregate per-link loads and decide violations here, so epsilon handling
// and the early-termination heuristics cannot diverge between paths again.
package core

import (
	"math"
	"net/netip"
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// violThreshold is the single definition of the overload decision boundary:
// a load is a violation of an upper limit exactly when it exceeds
// violThreshold(limit). The quick bound, the early-termination loop, and
// the final terminal scan of every check path compare against this value.
func violThreshold(limit float64) float64 { return limit - loadEpsilon }

// boundScan is the terminal-scan predicate for an explicit [min, max]
// bound: values outside the epsilon-widened interval are violations.
func boundScan(min, max float64) mtbdd.ScanCheck {
	hi := max + loadEpsilon
	if math.IsInf(max, 1) {
		hi = math.Inf(1)
	}
	return mtbdd.ScanCheck{Lo: min - loadEpsilon, Hi: hi, MaxFails: -1}
}

// overloadScan is the terminal-scan predicate for an upper-limit overload
// check, built on violThreshold.
func overloadScan(limit float64) mtbdd.ScanCheck {
	return mtbdd.ScanCheck{Lo: math.Inf(-1), Hi: violThreshold(limit), MaxFails: -1}
}

// scanCtx binds the shared checker to one manager: the primary one
// (imp == nil, loads may trigger the engine-wide GC) or a parallel shard's
// private manager (imp rebuilds primary nodes there, memoized).
type scanCtx struct {
	v       *Verifier
	m       *mtbdd.Manager
	fv      *routesim.FailVars
	imp     func(*mtbdd.Node) *mtbdd.Node
	gcFirst bool
}

func (v *Verifier) primaryScan() scanCtx {
	return scanCtx{v: v, m: v.e.m, fv: v.e.fv, gcFirst: true}
}

func (c *shardChecker) scan() scanCtx {
	return scanCtx{v: c.v, m: c.m, fv: c.fv, imp: c.m.Import}
}

func (sc scanCtx) node(w *mtbdd.Node) *mtbdd.Node {
	if sc.imp != nil {
		return sc.imp(w)
	}
	return w
}

// checkTau applies the deferred KREDUCE of the reduction-disabled ablation
// before a terminal scan.
func (sc scanCtx) checkTau(tau *mtbdd.Node) *mtbdd.Node {
	if sc.v.e.opts.CheckK > 0 {
		tau = sc.m.KReduce(tau, sc.v.e.opts.CheckK)
	}
	return tau
}

// scanClass is one link-local equivalence class of a link's load: an STF
// node (in this context's manager) and the summed volume riding on it.
type scanClass struct {
	w   *mtbdd.Node
	vol float64
	max float64
}

// linkClasses groups the flows crossing l into link-local equivalence
// classes in first-seen order (float addition is not associative, so the
// deterministic order keeps verdicts reproducible). Classes are keyed by
// the primary manager's canonical pointer even on shards — the import is
// injective on canonical nodes, so every context builds the same classes
// in the same order.
func (sc scanCtx) linkClasses(l topo.DirLinkID, stat *LinkCheckStat) []scanClass {
	var classes []scanClass
	if sc.v.e.opts.DisableLinkLocalEquiv {
		for _, s := range sc.v.stfs {
			if w, ok := s.Links[l]; ok {
				stat.Flows++
				classes = append(classes, scanClass{w: sc.node(w), vol: s.Flow.Gbps})
			}
		}
	} else {
		idx := make(map[*mtbdd.Node]int)
		for _, s := range sc.v.stfs {
			if w, ok := s.Links[l]; ok {
				stat.Flows++
				if i, ok := idx[w]; ok {
					classes[i].vol += s.Flow.Gbps
				} else {
					idx[w] = len(classes)
					classes = append(classes, scanClass{w: sc.node(w), vol: s.Flow.Gbps})
				}
			}
		}
	}
	stat.Classes = len(classes)
	return classes
}

// linkLoad aggregates the symbolic traffic load τ_l of a directed link
// from its equivalence classes.
func (sc scanCtx) linkLoad(l topo.DirLinkID) (*mtbdd.Node, LinkCheckStat) {
	if sc.gcFirst {
		sc.v.e.maybeGC(sc.v.stfs, nil)
	}
	start := time.Now()
	stat := LinkCheckStat{Link: l}
	tau := sc.m.Zero()
	for _, c := range sc.linkClasses(l, &stat) {
		tau = mulAddTimed(sc.v.kreduceT, sc.fv, tau, c.vol, c.w)
	}
	stat.Elapsed = time.Since(start)
	return tau, stat
}

// deliveredLoad aggregates the symbolic delivered traffic of every flow
// destined inside pfx, grouped in first-seen order like linkClasses.
func (sc scanCtx) deliveredLoad(pfx netip.Prefix) (*mtbdd.Node, LinkCheckStat) {
	start := time.Now()
	stat := LinkCheckStat{Kind: "delivered", Prefix: pfx}
	idx := make(map[*mtbdd.Node]int)
	var classes []scanClass
	for _, s := range sc.v.stfs {
		if !pfx.Contains(s.Flow.Dst) {
			continue
		}
		stat.Flows++
		if i, ok := idx[s.Delivered]; ok {
			classes[i].vol += s.Flow.Gbps
		} else {
			idx[s.Delivered] = len(classes)
			classes = append(classes, scanClass{w: sc.node(s.Delivered), vol: s.Flow.Gbps})
		}
	}
	stat.Classes = len(classes)
	tau := sc.m.Zero()
	for _, c := range classes {
		tau = mulAddTimed(sc.v.kreduceT, sc.fv, tau, c.vol, c.w)
	}
	stat.Elapsed = time.Since(start)
	return tau, stat
}

// LinkCheck is one compiled portfolio predicate on a symbolic load: an
// interval bound, an overload-style upper limit (Overload true — violation
// exactly when load > violThreshold(Max)), optionally conditioned on a
// failure variable.
type LinkCheck struct {
	Min, Max float64
	Overload bool
	// CondVar, when >= 0, makes the check conditional: it is evaluated on
	// the cofactor where the variable is failed (guard restriction), with
	// the scan's failure budget reduced by one so the restricted witness
	// plus the guard still fits the run's k.
	CondVar int
}

// ScanResult is one LinkCheck's outcome.
type ScanResult struct {
	Violated bool
	// Value is the load at the witness scenario.
	Value float64
	// FailedLinks / FailedRouters describe the witness scenario. For a
	// conditional check they include the guard element.
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// scanCheck converts a LinkCheck to its terminal-scan predicate.
func (c LinkCheck) scanCheck() mtbdd.ScanCheck {
	if c.Overload {
		return overloadScan(c.Max)
	}
	return boundScan(c.Min, c.Max)
}

// condBudget is the failure budget of a guard-restricted scan: one less
// than the run's effective k (the guard itself is a failure). Returns
// ok=false when the budget admits no failures at all, making every
// conditional property vacuous.
func (sc scanCtx) condBudget() (int, bool) {
	effK := sc.fv.K
	if sc.v.e.opts.CheckK > 0 {
		effK = sc.v.e.opts.CheckK
	}
	if effK < 0 {
		return -1, true // reduction disabled without a check budget: unlimited
	}
	if effK == 0 {
		return 0, false
	}
	return effK - 1, true
}

// scanPortfolio evaluates a batch of checks against one aggregated load:
// the unconditional checks share a single terminal scan of tau, and each
// distinct guard variable adds one scan of its cofactor (counted in the
// returned restrict count). Witness assignments of conditional checks get
// the guard element folded back in.
func (sc scanCtx) scanPortfolio(tau *mtbdd.Node, checks []LinkCheck) ([]ScanResult, int) {
	tau = sc.checkTau(tau)
	out := make([]ScanResult, len(checks))

	// Partition: unconditional checks share the one scan; conditionals
	// group by guard variable in first-seen order.
	var uncond []int
	condIdx := make(map[int][]int)
	var condVars []int
	for i, c := range checks {
		if c.CondVar < 0 {
			uncond = append(uncond, i)
		} else {
			if _, seen := condIdx[c.CondVar]; !seen {
				condVars = append(condVars, c.CondVar)
			}
			condIdx[c.CondVar] = append(condIdx[c.CondVar], i)
		}
	}

	fill := func(idxs []int, hits []mtbdd.ScanHit, guard int) {
		for j, i := range idxs {
			h := hits[j]
			if !h.OK {
				continue
			}
			links, routers := scenarioWitness(sc.fv, h.A)
			if guard >= 0 {
				if l, r, isLink := sc.fv.VarElement(guard); isLink {
					links = append(links, l)
					sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
				} else {
					routers = append(routers, r)
					sort.Slice(routers, func(a, b int) bool { return routers[a] < routers[b] })
				}
			}
			out[i] = ScanResult{Violated: true, Value: h.Value, FailedLinks: links, FailedRouters: routers}
		}
	}

	if len(uncond) > 0 {
		scs := make([]mtbdd.ScanCheck, len(uncond))
		for j, i := range uncond {
			scs[j] = checks[i].scanCheck()
		}
		fill(uncond, sc.m.ScanOutside(tau, scs), -1)
	}

	restricts := 0
	if len(condVars) > 0 {
		budget, feasible := sc.condBudget()
		if feasible {
			for _, cv := range condVars {
				idxs := condIdx[cv]
				scs := make([]mtbdd.ScanCheck, len(idxs))
				for j, i := range idxs {
					s := checks[i].scanCheck()
					s.MaxFails = budget
					scs[j] = s
				}
				restricts++
				fill(idxs, sc.m.ScanOutside(sc.m.Restrict(tau, cv, false), scs), cv)
			}
		}
	}
	return out, restricts
}

// ScanLink aggregates directed link l's load once and evaluates every
// check against it in a single shared terminal scan (conditional checks
// add one cofactor scan per distinct guard; the count is returned). This
// is the portfolio engine's per-link primitive.
func (v *Verifier) ScanLink(l topo.DirLinkID, checks []LinkCheck) ([]ScanResult, LinkCheckStat, int) {
	sc := v.primaryScan()
	tau, stat := sc.linkLoad(l)
	res, restricts := sc.scanPortfolio(tau, checks)
	return res, stat, restricts
}

// ScanDelivered is ScanLink for the delivered traffic of a prefix.
func (v *Verifier) ScanDelivered(pfx netip.Prefix, checks []LinkCheck) ([]ScanResult, LinkCheckStat, int) {
	sc := v.primaryScan()
	tau, stat := sc.deliveredLoad(pfx)
	res, restricts := sc.scanPortfolio(tau, checks)
	return res, stat, restricts
}

// ScanAggregate aggregates the loads of a set of directed links into one
// symbolic quantity — their pointwise sum (total traffic crossing a cut)
// or pointwise max (the worst-loaded member) — and evaluates every check
// against it in one shared terminal scan. Each member link's load is
// aggregated exactly as ScanLink does; the cross-link combine runs on the
// fused k-budgeted kernels (AddNK / MaxK), so every intermediate stays
// within the KReduce'd size envelope.
func (v *Verifier) ScanAggregate(links []topo.DirLinkID, max bool, checks []LinkCheck) ([]ScanResult, LinkCheckStat, int) {
	sc := v.primaryScan()
	start := time.Now()
	stat := LinkCheckStat{Kind: "aggregate"}
	taus := make([]*mtbdd.Node, 0, len(links))
	for _, l := range links {
		tau, lstat := sc.linkLoad(l)
		stat.Flows += lstat.Flows
		stat.Classes += lstat.Classes
		taus = append(taus, tau)
	}
	var tau *mtbdd.Node
	if max {
		tau = sc.m.Zero()
		for _, t := range taus {
			tau = sc.m.MaxK(tau, t, sc.fv.K)
		}
	} else {
		tau = sc.m.AddNK(taus, sc.fv.K)
	}
	stat.Elapsed = time.Since(start)
	res, restricts := sc.scanPortfolio(tau, checks)
	return res, stat, restricts
}

// RunScan runs fn under the verifier's governance ladder: cancellation is
// checked first, a node-budget breach triggers an engine-wide GC and one
// retry, and an unrelieved breach is reported as skipped under the degrade
// policy (fatal otherwise). fn must be idempotent — it reruns on retry.
func (v *Verifier) RunScan(fn func()) (skipped bool, err error) {
	return v.runGoverned(&Report{}, func(*Report) { fn() })
}

// Vars exposes the run's failure-variable layout (to resolve property
// guards to variables).
func (v *Verifier) Vars() *routesim.FailVars { return v.e.fv }

// checkLink verifies one directed link against an upper limit, dispatching
// on the early-termination ablation.
func (sc scanCtx) checkLink(l topo.DirLinkID, limit float64) (LinkCheckStat, []Violation) {
	if sc.v.e.opts.DisableEarlyTermination {
		return sc.checkLinkFull(l, limit)
	}
	return sc.checkLinkPruned(l, limit)
}

// checkLinkFull aggregates the whole load and scans it once.
func (sc scanCtx) checkLinkFull(l topo.DirLinkID, limit float64) (LinkCheckStat, []Violation) {
	tau, stat := sc.linkLoad(l)
	var viols []Violation
	if a, val, bad := sc.checkOverload(tau, limit); bad {
		links, routers := scenarioWitness(sc.fv, a)
		viols = append(viols, Violation{
			Kind: "link-load", Link: l, Value: val, Min: 0, Max: limit,
			FailedLinks: links, FailedRouters: routers,
		})
	}
	return stat, viols
}

// checkOverload scans tau against an upper limit using the shared
// threshold.
func (sc scanCtx) checkOverload(tau *mtbdd.Node, limit float64) (mtbdd.Assignment, float64, bool) {
	h := sc.m.ScanOutside(sc.checkTau(tau), []mtbdd.ScanCheck{overloadScan(limit)})[0]
	return h.A, h.Value, h.OK
}

// checkLinkPruned verifies one directed link against an upper limit with
// the §6 early-termination heuristics: a link whose summed per-class
// maxima cannot reach the limit is passed without any MTBDD aggregation,
// and during aggregation the scan stops as soon as the accumulated maximum
// proves a violation (loads are non-negative, so partial sums only grow)
// or the remaining mass cannot reach the limit.
func (sc scanCtx) checkLinkPruned(l topo.DirLinkID, limit float64) (LinkCheckStat, []Violation) {
	if sc.gcFirst {
		sc.v.e.maybeGC(sc.v.stfs, nil)
	}
	start := time.Now()
	m := sc.m
	stat := LinkCheckStat{Link: l}
	classes := sc.linkClasses(l, &stat)
	for i := range classes {
		_, hi := m.Range(classes[i].w)
		classes[i].max = hi
	}

	threshold := violThreshold(limit)

	// Quick bound: if even the per-class maxima cannot reach the limit,
	// the property holds on this link with no aggregation at all.
	total := 0.0
	for _, c := range classes {
		total += c.vol * c.max
	}
	if total <= threshold {
		stat.Elapsed = time.Since(start)
		return stat, nil
	}

	// Aggregate classes in descending contribution order (stable for
	// reproducibility), stopping as soon as either verdict is certain.
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].vol*classes[i].max > classes[j].vol*classes[j].max })
	remaining := total
	tau := m.Zero()
	for _, c := range classes {
		tau = mulAddTimed(sc.v.kreduceT, sc.fv, tau, c.vol, c.w)
		remaining -= c.vol * c.max
		_, hi := m.Range(tau)
		if hi > threshold {
			// The partial maximum already violates, and adding more
			// classes only increases it.
			break
		}
		if hi+remaining <= threshold {
			// Even if every remaining class peaked simultaneously the
			// limit is unreachable.
			stat.Elapsed = time.Since(start)
			return stat, nil
		}
	}
	stat.Elapsed = time.Since(start)
	var viols []Violation
	if a, val, bad := sc.checkOverload(tau, limit); bad {
		links, routers := scenarioWitness(sc.fv, a)
		// tau may be a partial sum (early break): recompute the exact
		// load at the witness by evaluating every class there.
		assign := sc.fv.Scenario(links, routers)
		exact := 0.0
		for _, c := range classes {
			exact += c.vol * m.Eval(c.w, assign)
		}
		if exact > val {
			val = exact
		}
		viols = append(viols, Violation{
			Kind: "link-load", Link: l, Value: val, Min: 0, Max: limit,
			FailedLinks: links, FailedRouters: routers,
		})
	}
	return stat, viols
}
