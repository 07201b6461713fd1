// Concurrent per-link checking (DESIGN.md §13).
//
// Flow classes are always executed once, in class order, in the primary
// manager (buildClasses). Only the overload check fans out: with
// workers > 1, CheckOverloadAll distributes the directed links over a pool
// of shard checkers. mtbdd.Manager is single-threaded by design, so each
// checker owns a private Manager into which it imports just the STFs
// present on the link at hand. Results are accumulated in the network's
// link order, so the Report is identical (modulo per-check Elapsed
// timings) to a sequential run.
package core

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// testCheckHook, when non-nil, runs in a check worker before each link
// check. It is a test seam: injecting a panic here exercises the worker
// containment path without corrupting any real state.
var testCheckHook func(topo.DirLinkID)

// shardGCThreshold is the live-node count that triggers a shard-local GC
// in a link-check worker. Nothing is retained across links, so the roots
// are empty and the collection is cheap.
const shardGCThreshold = 1 << 20

// linkRes is one directed link's check outcome in the parallel pool.
// done distinguishes a completed check from one that was skipped (budget
// degrade) or never ran (cancellation stopped the pool first) — both of
// the latter leave the link unchecked in the report.
type linkRes struct {
	stat  LinkCheckStat
	viols []Violation
	done  bool
}

// checkOverloadAllParallel is the concurrent counterpart of
// CheckOverloadAll: directed links are distributed over a worker pool via
// an atomic cursor, every worker checks links in a private shard manager,
// and per-link results are written into a slot array so the final
// accumulation order — and therefore the Report — matches the sequential
// path exactly.
//
// The pool is governed: each worker polls the context between links, a
// budget breach on a shard retries once after a shard GC and then (under
// the degrade policy) leaves the link unchecked, and any worker panic is
// contained into an error. The first fatal error stops the pool; links
// without a completed verdict are recorded as Unchecked.
func (v *Verifier) checkOverloadAllParallel(factor float64, rep *Report) error {
	net := v.e.net
	type job struct {
		l     topo.DirLinkID
		limit float64
	}
	jobs := make([]job, 0, 2*net.NumLinks())
	for li := 0; li < net.NumLinks(); li++ {
		link := net.Link(topo.LinkID(li))
		limit := link.Capacity * factor
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			jobs = append(jobs, job{topo.MakeDirLinkID(link.ID, d), limit})
		}
	}
	results := make([]linkRes, len(jobs))
	workers := v.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			linkC := v.e.opts.Obs.Counter(workerCounter(w, "links_checked"))
			var c *shardChecker
			if err := contained(func() { c = newShardChecker(v) }); err != nil {
				// A budget so tight the shard's FailVars cannot even be
				// built: under the degrade policy the shard bows out (its
				// links end up unchecked via other workers or not at all);
				// otherwise it is fatal.
				if !errors.Is(err, govern.ErrNodeBudget) || v.e.opts.OnBudget != BudgetDegrade {
					fail(err)
				}
				return
			}
			defer RecordManager(v.e.opts.Obs, "check-shard."+strconv.Itoa(w), c.m)
			var err error
			if cerr := contained(func() {
				for !stop.Load() {
					i := int(cursor.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if err = govern.Check(v.e.opts.Ctx); err != nil {
						return
					}
					if testCheckHook != nil {
						testCheckHook(jobs[i].l)
					}
					var done bool
					done, err = c.checkLinkGoverned(jobs[i].l, jobs[i].limit, &results[i])
					if err != nil {
						return
					}
					results[i].done = done
					linkC.Inc()
					c.maybeGC()
				}
			}); cerr != nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	for i := range results {
		if results[i].done {
			rep.LinkStats = append(rep.LinkStats, results[i].stat)
			rep.Violations = append(rep.Violations, results[i].viols...)
		} else {
			rep.markUnchecked(jobs[i].l)
		}
	}
	return firstErr
}

// shardChecker checks directed links in a private manager. It imports the
// STFs present on each link on demand (memoized by the manager's import
// cache) and mirrors the sequential checkOverloadPruned / LinkLoad logic
// operation for operation, so its verdicts and values are identical.
type shardChecker struct {
	v  *Verifier
	m  *mtbdd.Manager
	fv *routesim.FailVars
}

func newShardChecker(v *Verifier) *shardChecker {
	m := mtbdd.New()
	installGovernance(m, v.e.opts)
	fv := routesim.NewFailVars(m, v.e.net, v.e.fv.Mode, v.e.fv.K)
	return &shardChecker{v: v, m: m, fv: fv}
}

// checkLinkGoverned runs one link check through the budget ladder on the
// shard's private manager: a breach triggers a full shard GC (nothing is
// retained between links) and one retry; a retry that still breaches is
// reported as skipped under the degrade policy, fatal otherwise.
func (c *shardChecker) checkLinkGoverned(l topo.DirLinkID, limit float64, res *linkRes) (bool, error) {
	attempt := func() error {
		return mtbdd.Guard(func() {
			res.stat, res.viols = c.checkLink(l, limit)
		})
	}
	err := attempt()
	if err != nil && errors.Is(err, govern.ErrNodeBudget) {
		c.m.GC(nil)
		err = attempt()
	}
	if err == nil {
		return true, nil
	}
	if errors.Is(err, govern.ErrNodeBudget) && c.v.e.opts.OnBudget == BudgetDegrade {
		return false, nil
	}
	return false, err
}

// maybeGC collects the shard manager between links. Nothing survives a
// link check, so the root set is empty (the import memo is dropped with
// the other caches and rebuilt on demand).
func (c *shardChecker) maybeGC() {
	if c.m.Stats().Live > shardGCThreshold {
		c.m.GC(nil)
	}
}

// checkLink verifies one directed link against an upper limit through the
// shared scan core, without touching the primary manager: classes are
// keyed by the primary canonical pointer and imported on demand, so the
// grouping — and every verdict and value — is identical to sequential.
func (c *shardChecker) checkLink(l topo.DirLinkID, limit float64) (LinkCheckStat, []Violation) {
	return c.scan().checkLink(l, limit)
}
