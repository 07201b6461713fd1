// Command yubench regenerates the paper's evaluation tables and figures
// (§7) on synthetic stand-in networks.
//
// Usage:
//
//	yubench -exp table3|table4|fig11|fig12|fig13|fig15|fig17|workers|scaling|overhead|kernels|tlp|modular|all
//	        [-scale quick|full] [-baseline-budget 30s]
//	        [-workers 1,2,4,8] [-rounds 3] [-json TAG] [-require-speedup]
//	        [-require-tlp-sharing] [-require-modular-speedup]
//
// Quick scale finishes in minutes; full scale uses the paper's Table 3
// router/link counts and can run for hours single-threaded. Baseline
// engines (QARC-style search, Jingubang-style enumeration) are bounded by
// -baseline-budget and report "> budget (timeout)" when exceeded, just as
// the paper reports "> 3600" cells.
//
// The workers experiment sweeps the link-check pool's worker count on
// the medium WAN case; the scaling experiment sweeps workers × k with a
// per-phase breakdown (route simulation / execution / checking), records
// GOMAXPROCS in every row, and with -require-speedup gates CI on the 4-worker
// exec+check time beating 1 worker by >10% (skipped below 4 cores); the
// kernels experiment compares the fused MTBDD kernels against the
// composed build-then-reduce pipeline on N0; the tlp experiment sweeps
// batch-portfolio sizes {1,100,1000} on the medium WAN and with
// -require-tlp-sharing gates CI on the 1000-property run finishing in
// under twice the 1-property run (the scan-sharing contract); the modular
// experiment compares compositional verification (domain decomposition
// with interface summaries) against the monolithic pipeline on the
// multi-domain wan-1 workload, unbudgeted and under the node budget that
// only the modular pipeline survives, and with -require-modular-speedup
// gates CI on that separation (skipped below 4 cores); -json TAG
// additionally writes the measurements to BENCH_TAG.json for machine
// consumption.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/bench"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table3, table4, fig11, fig12, fig13, fig15, fig17, workers, scaling, overhead, kernels, tlp, modular, or all")
	scaleFlag := flag.String("scale", "quick", "quick or full")
	budget := flag.Duration("baseline-budget", 60*time.Second, "per-cell time budget for baseline engines")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts for the workers experiment")
	rounds := flag.Int("rounds", 3, "best-of rounds for the overhead and kernels experiments")
	jsonTag := flag.String("json", "", "write measurements to BENCH_<TAG>.json")
	requireSpeedup := flag.Bool("require-speedup", false,
		"after the scaling experiment, fail unless 4 workers beat 1 worker by >10% on exec+check (skipped when GOMAXPROCS < 4)")
	requireTLPSharing := flag.Bool("require-tlp-sharing", false,
		"after the tlp experiment, fail unless the largest portfolio finishes in under 2x the smallest's wall time")
	requireModular := flag.Bool("require-modular-speedup", false,
		"after the modular experiment, fail unless the node budget kills the monolithic run while the modular run verifies with smaller per-domain state (skipped when GOMAXPROCS < 4)")
	flag.Parse()

	workersList, err := parseWorkers(*workersFlag)
	if err != nil {
		fatal(err)
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
	}

	var records []bench.BenchRecord

	runners := map[string]func() error{
		"workers": func() error {
			rs, err := bench.WorkersSweep(os.Stdout, scale, workersList)
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"scaling": func() error {
			rs, err := bench.ScalingSweep(os.Stdout, scale, workersList)
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"table1": func() error {
			spec, err := paperex.MotivatingSpec()
			if err != nil {
				return err
			}
			bench.Table1(os.Stdout, map[string]*config.Spec{
				"motivating (SR+iBGP)": spec,
			})
			return nil
		},
		"overhead": func() error {
			rs, err := bench.OverheadSweep(os.Stdout, scale, *rounds)
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"kernels": func() error {
			rs, err := bench.KernelsSweep(os.Stdout, scale, *rounds)
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"tlp": func() error {
			rs, err := bench.TLPSweep(os.Stdout, scale, []int{1, 100, 1000})
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"modular": func() error {
			rs, err := bench.ModularSweep(os.Stdout, scale)
			if err != nil {
				return err
			}
			records = append(records, rs...)
			return nil
		},
		"table3": func() error { return bench.Table3(os.Stdout, scale) },
		"table4": func() error { return bench.Table4(os.Stdout, scale, *budget) },
		"fig11":  func() error { return bench.Fig11(os.Stdout, scale, topo.FailLinks, *budget) },
		"fig12":  func() error { return bench.Fig12(os.Stdout, scale) },
		"fig13":  func() error { return bench.Fig13and14(os.Stdout, scale) },
		"fig15":  func() error { return bench.Fig15and16(os.Stdout, scale, *budget) },
		"fig17":  func() error { return bench.Fig11(os.Stdout, scale, topo.FailRouters, *budget) },
	}
	order := []string{"table1", "table3", "fig11", "fig12", "fig13", "fig15", "fig17", "table4", "workers", "scaling", "overhead", "kernels", "tlp", "modular"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	} else {
		run, ok := runners[*exp]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		if err := run(); err != nil {
			fatal(err)
		}
	}

	if *jsonTag != "" {
		path := "BENCH_" + *jsonTag + ".json"
		if err := bench.WriteBenchJSON(path, records); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d records)\n", path, len(records))
	}

	if *requireSpeedup {
		if err := bench.CheckScalingSpeedup(os.Stdout, records); err != nil {
			fatal(err)
		}
	}

	if *requireTLPSharing {
		if err := bench.CheckTLPSharing(os.Stdout, records); err != nil {
			fatal(err)
		}
	}

	if *requireModular {
		if err := bench.CheckModularSpeedup(os.Stdout, records); err != nil {
			fatal(err)
		}
	}
}

// parseWorkers parses "1,2,4,8" into worker counts.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers is empty")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yubench:", err)
	os.Exit(1)
}
