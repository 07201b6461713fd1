package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

// BenchRecord is one machine-readable measurement emitted into
// BENCH_<tag>.json so the performance trajectory across PRs is trackable.
type BenchRecord struct {
	Experiment string `json:"experiment"`
	Case       string `json:"case"`
	K          int    `json:"k"`
	Mode       string `json:"mode"`
	Workers    int    `json:"workers"`
	// Properties is the portfolio size for the tlp experiment (0
	// elsewhere): the sweep's independent variable.
	Properties int `json:"properties,omitempty"`
	// GOMAXPROCS is the scheduler's OS-thread parallelism during the run —
	// the hardware ceiling a workers>1 row is bounded by. A sweep recorded
	// with GOMAXPROCS=1 measures scheduling overhead, not speedup.
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	WallMS     float64 `json:"wall_ms"`
	RouteSimMS float64 `json:"route_sim_ms"`
	// ExecMS and CheckMS break ExecCheckMS into the symbolic-execution
	// phase and the link-check phase (the cursor pool) — the scaling
	// experiment's per-phase evidence.
	ExecMS  float64 `json:"exec_ms,omitempty"`
	CheckMS float64 `json:"check_ms,omitempty"`
	// PeakUniqueNodes is the primary manager's peak unique-table size.
	// Check-shard managers are private and excluded.
	PeakUniqueNodes int `json:"peak_unique_nodes"`
	// CreatedNodes counts every node the primary manager hash-consed
	// over the run's lifetime — unlike the peak it cannot be masked by
	// GC timing, so it is the kernels experiment's primary evidence.
	CreatedNodes int `json:"created_nodes,omitempty"`
	// ExecCheckMS is wall time minus route simulation: the execute+check
	// span the fused kernels target (route simulation is shared).
	ExecCheckMS float64 `json:"exec_check_ms,omitempty"`
	// FusionCuts counts budget-exhaustion collapses inside the fused
	// kernels (0 when fusion is off).
	FusionCuts    uint64 `json:"fusion_cuts,omitempty"`
	FlowsExecuted int    `json:"flows_executed"`
	Violations    int    `json:"violations"`
	// Speedup is wall time at workers=1 divided by this record's wall
	// time (1.0 for the workers=1 row itself).
	Speedup float64 `json:"speedup"`
	// OverheadPct, for the overhead experiment, is the instrumented
	// run's wall-time cost relative to its paired bare run, in percent
	// (best-of-rounds on both sides).
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	// MaxNodes is the live-node budget the run was held to (modular
	// experiment; 0 = unlimited), and Outcome how it ended: "verified",
	// "violated", or "node-budget".
	MaxNodes int    `json:"max_nodes,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	// DomainPeakNodes and FallbackClasses mirror yu.ModularStats for
	// compositional runs: the largest per-domain manager and the classes
	// that escaped their domain's summary precision.
	DomainPeakNodes int `json:"domain_peak_nodes,omitempty"`
	FallbackClasses int `json:"fallback_classes,omitempty"`
	// Metrics, when the run was instrumented, is the obs.Registry
	// snapshot: per-phase durations, per-cache hit/miss counters, and
	// per-manager node statistics.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// WriteBenchJSON writes records as indented JSON to path.
func WriteBenchJSON(path string, records []BenchRecord) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WorkersSweep measures end-to-end verification wall time on the medium
// WAN case across worker counts: the scaling experiment for the
// concurrent link-check pool. workers=1 checks sequentially, so its row
// doubles as the regression baseline.
//
// Single-run efficiency is the paper's claim; this sweep is ours: with P
// workers the per-link checks run on P private MTBDD managers, and the
// speedup column shows how far that carries on the current host. On a
// single-core host (GOMAXPROCS=1) expect ~1.0×: the pool adds import
// overhead but no extra cores to spend it on.
func WorkersSweep(w io.Writer, scale Scale, workersList []int) ([]BenchRecord, error) {
	c := wanCases(scale)[1] // N1: the medium WAN
	spec, flows, err := buildWAN(c)
	if err != nil {
		return nil, err
	}
	k := c.ks[0]
	fmt.Fprintf(w, "Workers sweep: %s (%d routers, %d links), %d flows, k=%d link failures\n",
		c.name, spec.Net.NumRouters(), spec.Net.NumLinks(), len(flows), k)
	fmt.Fprintf(w, "%-8s %14s %14s %12s %10s %9s\n",
		"workers", "wall", "routesim", "exec'd", "nodes", "speedup")
	var records []BenchRecord
	var base time.Duration
	for _, workers := range workersList {
		run, err := runYUWorkers(spec, flows, k, topo.FailLinks, core.Options{}, 1.0, workers)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = run.Elapsed
		}
		speedup := float64(base) / float64(run.Elapsed)
		records = append(records, BenchRecord{
			Experiment:      "workers",
			Case:            c.name,
			K:               k,
			Mode:            topo.FailLinks.String(),
			Workers:         workers,
			WallMS:          float64(run.Elapsed.Microseconds()) / 1000,
			RouteSimMS:      float64(run.RouteTime.Microseconds()) / 1000,
			PeakUniqueNodes: run.MTBDDNodes,
			FlowsExecuted:   run.Executed,
			Violations:      run.Violations,
			Speedup:         speedup,
		})
		fmt.Fprintf(w, "%-8d %14s %14s %12d %10d %8.2fx\n",
			workers, fmtDur(run.Elapsed, false), fmtDur(run.RouteTime, false),
			run.Executed, run.MTBDDNodes, speedup)
	}
	return records, nil
}
