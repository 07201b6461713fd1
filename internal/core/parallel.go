// Parallel verification pipeline: work-stealing symbolic execution over
// equivalence classes and concurrent per-link checking (DESIGN.md §13).
//
// mtbdd.Manager is single-threaded by design, so parallelism comes from
// partitioning the work across private managers instead of locking one:
//
//   - Scheduling: the input flows are grouped into global-equivalence
//     classes (§6, sched.go); one representative per class is the work
//     unit. Classes are ordered by a cost model (measured hints
//     or a topology heuristic) and packed into chunks, dealt round-robin
//     onto per-worker deques: owners pop expensive chunks from the
//     front, idle workers steal cheap ones from the back.
//   - Execution: each worker builds its own Manager + FailVars
//     (NewFailVars is deterministic, so every shard has the identical
//     variable order), clones the guarded RIBs from a shared read-only
//     snapshot (routesim.ImportBase — the source DAG is walked once, each
//     worker pays only a linear replay into its own slab arena), and runs
//     ExecuteFlow with per-worker managed GC. ExecuteFlow iterates its
//     wavefront in sorted order, so a worker computes bit-for-bit the
//     same STF the sequential path would, regardless of which worker ran
//     it or in what order.
//   - Merge: the one class loop (buildClasses) re-imports every class
//     STF into the primary manager (mtbdd.Import) in class order, under
//     the execution budget ladder — a slot array keyed by class index
//     makes the accumulation order independent of scheduling, so reports
//     are byte-identical to the sequential path for every worker count.
//     Hash-consing makes equal functions from different workers collapse
//     to the same *Node, restoring the pointer-equality invariant the
//     §5.3 link-local equivalence grouping relies on.
//   - Checking: CheckOverloadAll fans the directed links out over a pool
//     of shard checkers, each with a private Manager into which it imports
//     just the STFs present on the link at hand. Results are accumulated
//     in the network's link order, so the Report is identical (modulo
//     per-check Elapsed timings) to a sequential run.
//
// workers <= 1 bypasses all of this and is the exact legacy code path.
package core

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// testExecHook, when non-nil, runs before each sharded flow execution.
// It is a test seam: injecting a panic here exercises the worker
// containment path without corrupting any real state.
var testExecHook func(topo.Flow)

// shardGCThreshold is the live-node count that triggers a shard-local GC
// in a link-check worker. Nothing is retained across links, so the roots
// are empty and the collection is cheap.
const shardGCThreshold = 1 << 20

// chunkDeque is one worker's work queue of class-index chunks. The owner
// pops from the front (chunks arrive cost-descending, so the front is the
// most expensive remaining work); thieves take from the back, moving the
// cheapest chunks — the ones the owner would reach last. A mutex suffices:
// contention is per-chunk, not per-flow, and chunks are sized to amortize
// it (buildChunks).
type chunkDeque struct {
	mu     sync.Mutex
	chunks [][]int
}

func (d *chunkDeque) push(c []int) {
	d.mu.Lock()
	d.chunks = append(d.chunks, c)
	d.mu.Unlock()
}

func (d *chunkDeque) popFront() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.chunks) == 0 {
		return nil
	}
	c := d.chunks[0]
	d.chunks = d.chunks[1:]
	return c
}

func (d *chunkDeque) popBack() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.chunks)
	if n == 0 {
		return nil
	}
	c := d.chunks[n-1]
	d.chunks = d.chunks[:n-1]
	return c
}

func (d *chunkDeque) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chunks)
}

// NewParallelVerifier executes the flows like NewVerifier but schedules
// the symbolic execution across up to the given number of workers, and
// returns a Verifier whose CheckOverloadAll fans links out over the same
// number of workers. workers <= 1 falls back to the sequential
// NewVerifier. At most one goroutine per work chunk is spawned — never
// an idle worker (SchedStats reports the actual count).
//
// The parallel and sequential paths produce identical Reports: execution
// is deterministic per class, results land in a slot array indexed by
// class (so scheduling order cannot reorder them), the merge restores
// canonical node identity in the primary manager in class order, and
// checking accumulates results in link order.
func NewParallelVerifier(e *Engine, flows []topo.Flow, workers int) *Verifier {
	if workers <= 1 {
		return NewVerifier(e, flows)
	}
	v := newClassVerifier(e, flows, workers)
	classes := v.classes
	v.sched.Workers = 0 // the spawned count, set below
	obsR := e.opts.Obs
	if len(classes) == 0 {
		return v
	}

	// Cost-ordered chunks, dealt round-robin onto per-worker deques.
	// Chunks are cost-descending, so round-robin approximates a
	// longest-processing-time-first assignment; stealing corrects the
	// rest at run time.
	classCosts(e, classes)
	spawn := workers
	if spawn > len(classes) {
		spawn = len(classes)
	}
	chunks := buildChunks(classes, spawn)
	if spawn > len(chunks) {
		spawn = len(chunks)
	}
	v.sched.Workers = spawn
	v.sched.Chunks = len(chunks)
	deques := make([]*chunkDeque, spawn)
	for w := range deques {
		deques[w] = &chunkDeque{}
	}
	for i, c := range chunks {
		deques[i%spawn].push(c)
	}
	depthHW := 0
	for _, d := range deques {
		if n := d.depth(); n > depthHW {
			depthHW = n
		}
	}

	// Divide the managed-GC budget among the workers so peak memory stays
	// in the same ballpark as a sequential run.
	wopts := e.opts
	if wopts.GCThreshold <= 0 {
		wopts.GCThreshold = defaultGCThreshold
	}
	wopts.GCThreshold /= spawn
	if wopts.GCThreshold < 1<<18 {
		wopts.GCThreshold = 1 << 18
	}

	// The shared read-only guard snapshot: built once here, replayed
	// linearly by every worker (copy-on-write — workers materialize nodes
	// only in their own arenas).
	base := e.rs.NewImportBase()

	stfs := make([]*FlowSTF, len(classes))
	workerErrs := make([]error, spawn)
	var steals atomic.Int64
	var stop atomic.Bool
	// next returns the worker's next chunk: its own deque front first,
	// then the back of the other deques (scanned from its right neighbor
	// so thieves spread instead of piling onto worker 0).
	next := func(w int) []int {
		if c := deques[w].popFront(); c != nil {
			return c
		}
		for off := 1; off < spawn; off++ {
			if c := deques[(w+off)%spawn].popBack(); c != nil {
				steals.Add(1)
				return c
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Private manager with the same variable order; guards are
			// replayed from the shared snapshot, never shared as nodes.
			// The primary manager is only read (node fields are
			// immutable), which is safe while the main goroutine blocks
			// in Wait. Governance must be armed before the import —
			// NewEngine would install it only after the import has
			// already run ungoverned.
			var werr error
			execC := obsR.Counter(workerCounter(w, "flows_executed"))
			busyT := obsR.Timer(workerCounter(w, "busy"))
			cerr := contained(func() {
				mW := mtbdd.New()
				defer RecordManager(obsR, "exec-shard."+strconv.Itoa(w), mW)
				installGovernance(mW, wopts)
				fvW := routesim.NewFailVars(mW, e.net, e.fv.Mode, e.fv.K)
				fvW.NoFuse = e.fv.NoFuse
				engW := NewEngine(base.ImportInto(fvW), wopts)
				var local []*FlowSTF
				for !stop.Load() {
					chunk := next(w)
					if chunk == nil {
						return
					}
					start := time.Now()
					for _, ci := range chunk {
						if testExecHook != nil {
							testExecHook(classes[ci].rep)
						}
						before := mW.Stats().Created
						s, err := engW.executeGoverned(classes[ci].rep, local)
						if err != nil {
							werr = err
							busyT.Add(time.Since(start))
							return
						}
						v.measured[ci] = float64(mW.Stats().Created - before)
						local = append(local, s)
						stfs[ci] = s
						execC.Inc()
					}
					busyT.Add(time.Since(start))
				}
			})
			if cerr != nil {
				werr = cerr
			}
			if werr != nil {
				workerErrs[w] = werr
				// A budget breach under the degrade policy is local: this
				// worker bows out and its queued chunks remain stealable.
				// Anything else is fatal to the run — stop the pool.
				if !(errors.Is(werr, govern.ErrNodeBudget) && e.opts.OnBudget == BudgetDegrade) {
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	v.sched.Steals = int(steals.Load())
	obsR.Counter("sched.steals").Add(steals.Load())
	obsR.Counter("sched.chunks").Add(int64(len(chunks)))
	obsR.Counter("sched.workers_spawned").Add(int64(spawn))
	obsR.Counter("sched.queue_depth_hw").Add(int64(depthHW))

	// Worker triage. Per-flow budget breaches were already handled inside
	// executeGoverned (GC + retry + concrete fallback); an error reaching
	// here is a cancellation, a contained panic, a breach under the fail
	// policy — or a breach during worker setup (snapshot replay), where a
	// same-budget retry would deterministically breach again. Under the
	// degrade policy any class left unexecuted (its worker died; nobody
	// stole it in time) goes to the bounded concrete fallback on the
	// primary engine.
	var budgetErr error
	for _, werr := range workerErrs {
		if werr == nil {
			continue
		}
		if errors.Is(werr, govern.ErrNodeBudget) && e.opts.OnBudget == BudgetDegrade {
			budgetErr = werr
		} else if v.err == nil {
			v.err = werr
		}
	}
	if v.err != nil {
		return v
	}
	if budgetErr != nil {
		for ci := range stfs {
			if stfs[ci] != nil {
				continue
			}
			s, ferr := e.concreteFallbackSTF(classes[ci].rep, budgetErr)
			if ferr != nil {
				v.err = ferr
				return v
			}
			stfs[ci] = s
		}
	}

	// Merge: the class loop imports every class STF into the primary
	// manager, in class order, under the execution budget ladder.
	mergeSpan := e.opts.Obs.Span("execute/merge")
	defer mergeSpan.End()
	v.buildClasses(stfs)
	return v
}

// importSTF rebuilds a FlowSTF owned by another manager (a shard's or a
// compose domain's) in the manager m.
func importSTF(m *mtbdd.Manager, s *FlowSTF) *FlowSTF {
	out := &FlowSTF{
		Flow:       s.Flow,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(s.Links)),
		Delivered:  m.Import(s.Delivered),
		Dropped:    m.Import(s.Dropped),
		InFlight:   m.Import(s.InFlight),
		Iterations: s.Iterations,
		Degraded:   s.Degraded,
	}
	for l, w := range s.Links {
		out.Links[l] = m.Import(w)
	}
	return out
}

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
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := govern.Check(v.e.opts.Ctx); err != nil {
					fail(err)
					return
				}
				done, err := c.checkLinkGoverned(jobs[i].l, jobs[i].limit, &results[i])
				if err != nil {
					fail(err)
					return
				}
				results[i].done = done
				linkC.Inc()
				c.maybeGC()
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
