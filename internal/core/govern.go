package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// installGovernance arms a manager with the engine's context poll and
// node budget. Every manager the pipeline creates — the primary and each
// link-check shard's — goes through here, so a
// cancel or breach unwinds no matter which manager is doing the work.
func installGovernance(m *mtbdd.Manager, opts Options) {
	if ctx := opts.Ctx; ctx != nil {
		m.SetInterrupt(func() error { return govern.Check(ctx) })
	}
	if opts.NodeBudget > 0 {
		m.SetNodeBudget(opts.NodeBudget)
	}
}

// SetContext rebinds the engine's cancellation context: the one its
// manager polls and the per-flow and per-link boundaries check. A run
// prepared once can then answer later queries, each bounded by its own
// context.
func (e *Engine) SetContext(ctx context.Context) {
	e.opts.Ctx = ctx
	e.m.SetInterrupt(nil)
	installGovernance(e.m, e.opts)
}

// contained runs fn with full panic containment: an MTBDD operation
// abort becomes its typed error, and any other panic becomes an error
// carrying the panic value and stack instead of crashing the process.
// This is the worker-goroutine boundary — a panic in one shard must
// surface as that shard's error, not take down the whole verifier.
func contained(fn func()) (err error) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else if e := mtbdd.AbortError(r); e != nil {
			err = e
		} else {
			err = fmt.Errorf("core: worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	fn()
	return nil
}

// executeGoverned runs one flow's symbolic execution through the
// engine's budget ladder (governed).
func (e *Engine) executeGoverned(f topo.Flow, done []*FlowSTF) (*FlowSTF, error) {
	return e.governed(f, done, func() *FlowSTF { return e.ExecuteFlow(f) })
}

// governed builds class f's STF in the engine's manager — by executing
// it, or by importing a copy executed in another manager — through the
// degradation ladder:
//
//  1. build, then the engine's managed GC;
//  2. on a budget breach, an engine-wide GC keeping only the engine
//     caches and the already-completed STFs (done), then one retry;
//  3. if the retry still breaches and the policy is BudgetDegrade, the
//     flow is re-verified by bounded concrete enumeration
//     (concreteFallbackSTF) and marked Degraded.
//
// Cancellation and non-budget errors are returned as-is at any rung.
func (e *Engine) governed(f topo.Flow, done []*FlowSTF, build func() *FlowSTF) (*FlowSTF, error) {
	if err := govern.Check(e.opts.Ctx); err != nil {
		return nil, err
	}
	attempt := func() (s *FlowSTF, err error) {
		err = mtbdd.Guard(func() {
			s = build()
			e.maybeGC(done, stfRoots(nil, []*FlowSTF{s}))
		})
		return s, err
	}
	s, err := attempt()
	if err == nil || !errors.Is(err, govern.ErrNodeBudget) {
		return s, err
	}
	e.opts.Obs.Counter("govern.budget_gc_retries").Inc()
	e.m.GC(e.roots(stfRoots(nil, done)))
	s, err = attempt()
	if err == nil || !errors.Is(err, govern.ErrNodeBudget) {
		return s, err
	}
	if e.opts.OnBudget != BudgetDegrade {
		return nil, err
	}
	return e.concreteFallbackSTF(f, err)
}
