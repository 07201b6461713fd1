// Command perfbench is the repository's benchmark: it measures
// time-to-verdict end to end on three fixed workloads (plus wan-k2, run
// by name) and, in a separate traced run, splits each workload's time
// across the layers
// config → routesim → core → mtbdd → compose / tlp / serve → canon.
//
// Run it from the root of the checkout (run.sh builds it first):
//
//	bash perfbench/run.sh --workload wan-k1 --seed 10 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//	bash perfbench/run.sh --compare old.jsonl new.jsonl
//
// End-to-end numbers go only through the stable surfaces (yu.LoadString
// and Network.Verify, serve.Server.Handler over loopback HTTP, canon);
// only the traced run calls layer functions. Every operation's
// verdict is checked; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. Each run
// also appends a record (host, seed, all figures) to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// record is one run's full result as stored in a results file (JSON
// lines); the compare mode reads these.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Time      string             `json:"time"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     string             `json:"spans,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 traces the calls into each layer and reports per-layer metrics")
		out     = flag.String("out", defaultOut(), "results file (JSON lines) to append this run's record to; empty for none")
		compare = flag.Bool("compare", false, "compare two results files: --compare OLD NEW")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare wants two results files")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace wants 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := findWorkload(*name); ok {
		run = []workload{w}
	} else {
		fatalf("unknown workload %q (want %s, or all)", *name, workloadNames())
	}

	host := currentHost(".")
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s %s/%s, revision %s, source %s\n",
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH, host.GitRevision, host.SourceDigest)
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	total := summary{Correct: true, Metrics: make(map[string]metricValue)}
	var last summary
	for _, w := range run {
		rec, err := runWorkload(w, rc, host, *out)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		last = summaryOf(rec)
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, v := range last.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	if len(run) > 1 {
		last = total
	}
	b, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func runWorkload(w workload, rc runConfig, host hostInfo, out string) (*record, error) {
	fmt.Printf("== %s (seed %d, %gs, trace %v): %s\n", w.name, rc.seed, rc.seconds, rc.trace, w.why)
	o, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Time: time.Now().UTC().Format(time.RFC3339), Host: host,
		Correct: o.failed == 0 && len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed,
		Failures: o.failures, Metrics: o.metrics, Extra: o.extra, Layers: o.layers,
	}
	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return nil, err
		}
		if o.tr != nil {
			rec.Spans = filepath.Join(filepath.Dir(out), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, rc.seed))
			if err := o.tr.write(rec.Spans); err != nil {
				return nil, err
			}
		}
		if err := appendRecord(out, rec); err != nil {
			return nil, err
		}
	}
	printRecord(rec)
	return rec, nil
}

func summaryOf(rec *record) summary {
	s := summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]metricValue)}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		v := rec.Metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return s
}

func printRecord(rec *record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Println(strings.TrimRight(fmt.Sprintf("  %-28s %14.4f %-6s %s", m.Name, rec.Metrics[m.Name], m.Unit, m.Moves), " "))
	}
	for _, k := range sortedKeys(rec.Extra) {
		fmt.Printf("  %-28s %14.4f\n", k, rec.Extra[k])
	}
	if rec.Trace {
		var sum float64
		fmt.Printf("  self time per layer (median traced operation):\n")
		for _, l := range layers {
			if v, ok := rec.Layers[l]; ok {
				fmt.Printf("    %-10s %10.2f ms\n", l, v)
				sum += v
			}
		}
		fmt.Printf("    %-10s %10.2f ms (untraced op_ms.p50 %.2f, tracing overhead %.2f)\n",
			"sum", sum, rec.Extra["untraced_op_ms"], rec.Metrics["trace.overhead_ms"])
	}
	fmt.Printf("  correct %v, attempted %d, failed %d\n", rec.Correct, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// defaultOut is the results file run.sh arranges for: inside the build
// directory of the checkout.
func defaultOut() string {
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		return filepath.Join(dir, "records.jsonl")
	}
	return ""
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
