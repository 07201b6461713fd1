package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// scalingRun is one measured verification with the per-phase breakdown
// the scaling sweep records.
type scalingRun struct {
	routeTime time.Duration
	execTime  time.Duration
	checkTime time.Duration
	executed  int
	viols     int
	nodes     int
}

// runScaling executes the pipeline once at a given worker count, timing
// route simulation, symbolic execution (sequential in the primary
// manager), and checking (the link-cursor pool) separately.
func runScaling(spec *config.Spec, flows []topo.Flow, k, workers int) (*scalingRun, error) {
	r := &scalingRun{}
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, spec.Net, topo.FailLinks, k)
	start := time.Now()
	rs, err := routesim.Run(fv, spec.Configs)
	if err != nil {
		return nil, err
	}
	r.routeTime = time.Since(start)
	eng := core.NewEngine(rs, core.Options{})
	start = time.Now()
	ver := core.NewParallelVerifier(eng, flows, workers)
	r.execTime = time.Since(start)
	start = time.Now()
	rep, err := ver.Run(nil, nil, 1.0)
	r.checkTime = time.Since(start)
	if err != nil {
		return nil, err
	}
	r.executed = rep.FlowsExecuted
	r.viols = len(rep.Violations)
	r.nodes = m.Stats().Live
	return r, nil
}

// ScalingSweep is the multicore scaling experiment: workers × k on the
// medium WAN cases, with the per-phase breakdown (route simulation and
// execution are worker-independent; checking is the phase the link-check
// pool parallelizes).
//
// Speedup is computed over exec+check only (route simulation is shared
// and sequential by design). Every record carries GOMAXPROCS: on a host
// with fewer cores than workers the sweep measures scheduling overhead,
// not speedup, and the gate in cmd/yubench skips itself accordingly.
func ScalingSweep(w io.Writer, scale Scale, workersList []int) ([]BenchRecord, error) {
	procs := runtime.GOMAXPROCS(0)
	all := wanCases(scale)
	// Quick scale: the small WAN carries the k dimension (k=2 on the
	// medium case runs minutes per row single-threaded — too slow for a
	// CI smoke), the medium WAN anchors the worker dimension at k=1.
	// Full scale: the paper-scale N1/N2 with their own budgets.
	type sweepCase struct {
		c  netCase
		ks []int
	}
	sweeps := []sweepCase{
		{all[0], []int{1, 2}}, // N0
		{all[1], []int{1}},    // N1
	}
	if scale == Full {
		sweeps = []sweepCase{{all[1], all[1].ks}, {all[2], all[2].ks}} // N1, N2
	}
	var records []BenchRecord
	for _, sc := range sweeps {
		c, ks := sc.c, sc.ks
		spec, flows, err := buildWAN(c)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "Scaling sweep: %s (%d routers, %d links), %d flows, GOMAXPROCS=%d\n",
			c.name, spec.Net.NumRouters(), spec.Net.NumLinks(), len(flows), procs)
		fmt.Fprintf(w, "%-4s %-8s %12s %12s %12s %9s\n",
			"k", "workers", "routesim", "exec", "check", "speedup")
		for _, k := range ks {
			var base time.Duration
			for _, workers := range workersList {
				run, err := runScaling(spec, flows, k, workers)
				if err != nil {
					return nil, err
				}
				execCheck := run.execTime + run.checkTime
				if base == 0 {
					base = execCheck
				}
				speedup := float64(base) / float64(execCheck)
				records = append(records, BenchRecord{
					Experiment:      "scaling",
					Case:            c.name,
					K:               k,
					Mode:            topo.FailLinks.String(),
					Workers:         workers,
					GOMAXPROCS:      procs,
					WallMS:          float64((run.routeTime + execCheck).Microseconds()) / 1000,
					RouteSimMS:      float64(run.routeTime.Microseconds()) / 1000,
					ExecMS:          float64(run.execTime.Microseconds()) / 1000,
					CheckMS:         float64(run.checkTime.Microseconds()) / 1000,
					ExecCheckMS:     float64(execCheck.Microseconds()) / 1000,
					PeakUniqueNodes: run.nodes,
					FlowsExecuted:   run.executed,
					Violations:      run.viols,
					Speedup:         speedup,
				})
				fmt.Fprintf(w, "%-4d %-8d %12s %12s %12s %8.2fx\n",
					k, workers, fmtDur(run.routeTime, false), fmtDur(run.execTime, false),
					fmtDur(run.checkTime, false), speedup)
			}
		}
	}
	return records, nil
}

// CheckScalingSpeedup is the CI gate over a scaling sweep's records: on a
// host with at least four cores, the 4-worker exec+check time must be at
// most 90% of the 1-worker time on the heaviest (case, k) pair that has
// both rows — the heaviest, because on tiny rows (hundreds of ms) fixed
// scheduling overhead can mask a real speedup and make the gate flaky.
// On a smaller host the gate reports itself skipped (there is no
// parallelism to measure) and returns nil.
func CheckScalingSpeedup(w io.Writer, records []BenchRecord) error {
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		fmt.Fprintf(w, "scaling gate: skipped (GOMAXPROCS=%d < 4; no parallelism to measure)\n", procs)
		return nil
	}
	type key struct {
		c string
		k int
	}
	base := make(map[key]float64)
	quad := make(map[key]float64)
	for _, r := range records {
		if r.Experiment != "scaling" {
			continue
		}
		switch r.Workers {
		case 1:
			base[key{r.Case, r.K}] = r.ExecCheckMS
		case 4:
			quad[key{r.Case, r.K}] = r.ExecCheckMS
		}
	}
	var heaviest key
	b := -1.0
	for kk, v := range base {
		if _, ok := quad[kk]; ok && v > b {
			heaviest, b = kk, v
		}
	}
	if b < 0 {
		return fmt.Errorf("scaling gate: sweep has no 1-worker/4-worker row pair")
	}
	q := quad[heaviest]
	if q > 0.9*b {
		return fmt.Errorf("scaling gate: %s k=%d: 4-worker exec+check %.1fms > 90%% of 1-worker %.1fms",
			heaviest.c, heaviest.k, q, b)
	}
	fmt.Fprintf(w, "scaling gate: %s k=%d ok (4-worker %.1fms vs 1-worker %.1fms, GOMAXPROCS=%d)\n",
		heaviest.c, heaviest.k, q, b, procs)
	return nil
}
