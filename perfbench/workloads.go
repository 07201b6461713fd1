package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// defaultSeed reproduces the N0 flows of the yubench ladder (flow seed
// 110) on the WAN workloads; the batch workloads' pinned verdicts are
// for this seed.
const defaultSeed = 10

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input to a few routers (the self-test's size).
	tiny bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string
	// metrics holds the end-to-end metrics (trace off) or the per-layer
	// metrics (trace on), keyed by metricDef.Name.
	metrics map[string]float64
	// extra holds further figures for the record and the table: the
	// daemon's delta and query latencies, failed_ops, sample counts.
	extra map[string]float64
	// layers is the median self time per layer of a traced operation.
	layers map[string]float64
	tr     *tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), extra: make(map[string]float64), layers: make(map[string]float64)}
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named set of inputs the benchmark runs. exercises
// lists the per-layer metrics that must be nonzero on it: the layers it
// runs, with the counters that always move there.
type workload struct {
	name      string
	why       string
	run       func(rc runConfig) (*outcome, error)
	exercises []string
}

// batchLayers are the per-layer metrics every monolithic batch workload
// moves.
var batchLayers = []string{
	"config.parse_ms", "routesim.igp_ms", "routesim.bgp_ms", "routesim.total_ms", "routesim.nodes_created",
	"core.execute_ms", "core.flows_executed", "core.global_equiv_ratio", "core.execute_nodes_created",
	"core.check_ms", "core.link_local_ratio", "core.link_check_ms.p50", "core.link_check_ms.max",
	"mtbdd.peak_live_nodes", "mtbdd.created_nodes", "mtbdd.fused_hit_ratio", "mtbdd.kreduce_hit_ratio",
	"mtbdd.apply_hit_ratio", "canon.format_report_ms",
}

var workloads = []workload{
	{
		name: "wan-k1",
		why:  "N0 WAN (100 routers), 5000 flows, k=1, 2 workers: route-sim leads and the shard-manager import path runs; moves routesim.*, core.execute_*, mtbdd.import_*",
		run:  wanK1.run,
		exercises: append([]string{"core.check_nodes_created", "mtbdd.import_hits", "mtbdd.import_misses"},
			batchLayers...),
	},
	{
		name: "modular-wan",
		why:  "8 domains of 20 routers, k=2, verified per domain against interface summaries: the only workload that runs compose; moves compose.* and peak memory",
		run:  modularWAN.run,
		exercises: []string{
			"config.parse_ms", "compose.build_ms", "compose.rounds", "compose.contained_classes",
			"compose.domain_peak_nodes", "core.flows_executed", "core.global_equiv_ratio", "core.check_ms",
			"core.check_nodes_created", "core.link_local_ratio", "core.link_check_ms.p50", "core.link_check_ms.max",
			"mtbdd.peak_live_nodes", "mtbdd.created_nodes", "mtbdd.fused_hit_ratio", "mtbdd.kreduce_hit_ratio",
			"mtbdd.apply_hit_ratio", "mtbdd.import_hits", "mtbdd.import_misses", "canon.format_report_ms",
		},
	},
	{
		name: "daemon-mix",
		why:  "warm daemon on loopback HTTP, one client: a delta (later reverted) and its report, then a 166-property TLP query; moves serve.*, tlp.compile_ms, the STF cache",
		run:  runDaemon,
		exercises: []string{
			"config.parse_ms", "routesim.total_ms", "core.execute_ms", "core.flows_executed",
			"core.global_equiv_ratio", "core.check_ms", "core.link_local_ratio", "mtbdd.peak_live_nodes",
			"mtbdd.created_nodes", "mtbdd.fused_hit_ratio", "mtbdd.kreduce_hit_ratio", "mtbdd.apply_hit_ratio",
			"tlp.compile_ms", "serve.apply_ms", "serve.report_ms", "serve.tlp_ms", "serve.stf_hit_ratio",
			"serve.dirty_classes", "canon.format_report_ms",
		},
	},
}

// extraWorkloads run by name but are not part of the benchmark
// BENCHMARK.json declares. wan-k2 is the check-led k=2 case: on a shared
// 2-core host its time-to-verdict varied by about 20% from run to run
// (quartile distance over median, ten seeds, twice), close to the
// largest bound the benchmark may set, so it cannot gate a change; its
// traced run still splits the check phase for work on load arithmetic.
var extraWorkloads = []workload{
	{
		name:      "wan-k2",
		why:       "80-router WAN, 2000 flows, k=2, 1 worker: the check phase leads; moves core.check_*, mtbdd hit ratios, while a route-sim change should barely move it",
		run:       wanK2.run,
		exercises: batchLayers,
	},
}

func allWorkloads() []workload {
	return append(append([]workload(nil), workloads...), extraWorkloads...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedLoop calls op until starting another call of the previous call's
// length would overrun the budget, and at least minOps times.
func timedLoop(seconds float64, minOps int, op func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minOps || (time.Since(start)+last).Seconds() <= seconds; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchCase is a workload that verifies one generated network over and
// over: each operation takes the spec text in memory to a canonical
// report through yu.LoadString, Network.Verify and canon.FormatReport.
type batchCase struct {
	gen func(seed int64, tiny bool) (*config.Spec, error)
	// opts is the measured configuration; ref an independent pipeline
	// (another worker count, and always monolithic) whose report must
	// match it byte for byte.
	opts, ref yu.VerifyOptions
	// modular verifies with the spec's own domain partition.
	modular bool
	pinned  pin
}

var wanK1 = batchCase{
	gen:    func(seed int64, tiny bool) (*config.Spec, error) { return wanSpec(seed, tiny, 1, wanN0, 5000) },
	opts:   yu.VerifyOptions{K: 1, OverloadFactor: 1, Workers: 2},
	ref:    yu.VerifyOptions{K: 1, OverloadFactor: 1, Workers: 1},
	pinned: pin{48, "19c6b2a99efc5d27aba12a50970aaeba991b795a3bfe62cd140a40ccf9265950"},
}

var wanK2 = batchCase{
	gen:    func(seed int64, tiny bool) (*config.Spec, error) { return wanSpec(seed, tiny, 2, wan80, 2000) },
	opts:   yu.VerifyOptions{K: 2, OverloadFactor: 1, Workers: 1},
	ref:    yu.VerifyOptions{K: 2, OverloadFactor: 1, Workers: 2},
	pinned: pin{20, "17a10d411b41ae98f88ef0d38e77a2e479c5c1741d9b4ba437ad9bdb2ba26f1d"},
}

var modularWAN = batchCase{
	gen:     modularSpec,
	opts:    yu.VerifyOptions{K: 2, Workers: 1},
	ref:     yu.VerifyOptions{K: 2, Workers: 1},
	modular: true,
	// The blueprint's load bounds are generous: it holds.
	pinned: pin{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
}

var (
	// wanN0 is N0 of the yubench ladder at quick scale.
	wanN0 = gen.WANSpec{Routers: 100, Links: 200, Prefixes: 60, SRPolicyFraction: 0.1, Seed: 10}
	// wan80 is a smaller WAN whose k=2 cost is led by the check phase
	// while one verification still fits a few times into a run.
	wan80   = gen.WANSpec{Routers: 80, Links: 160, Prefixes: 48, SRPolicyFraction: 0.1, Seed: 10}
	wanTiny = gen.WANSpec{Routers: 16, Links: 32, Prefixes: 6, SRPolicyFraction: 0.2, Seed: 10}
)

// wanSpec generates a WAN with a random flow set drawn from the seed.
// The topology is fixed; the seed picks the flows (seed 10 gives the
// yubench N0 flows).
func wanSpec(seed int64, tiny bool, k int, ws gen.WANSpec, flows int) (*config.Spec, error) {
	if tiny {
		ws, flows = wanTiny, 150
	}
	spec, err := gen.WAN(ws)
	if err != nil {
		return nil, err
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{
		Count: flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: seed + 100,
	})
	if err != nil {
		return nil, err
	}
	spec.K = k
	return spec, nil
}

// modularSpec generates the multi-domain WAN; the seed drives the
// generator (intra-domain wiring, prefixes and flows).
func modularSpec(seed int64, tiny bool) (*config.Spec, error) {
	ms := gen.MultiDomainSpec{Domains: 8, RoutersPer: 20, PrefixesPer: 6, FlowsPer: 16, K: 2, Seed: seed}
	if tiny {
		ms = gen.MultiDomainSpec{Domains: 3, RoutersPer: 6, PrefixesPer: 2, FlowsPer: 4, K: 2, Seed: seed}
	}
	return gen.MultiDomain(ms)
}

// setUp generates, renders and loads the workload's input setupReps
// times and returns the spec text with the median set-up time.
func (bc batchCase) setUp(rc runConfig) (string, float64, error) {
	var text string
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		spec, err := bc.gen(rc.seed, rc.tiny)
		if err != nil {
			return "", 0, err
		}
		text, err = canon.FormatSpec(spec)
		if err != nil {
			return "", 0, err
		}
		if _, err := yu.LoadString(text); err != nil {
			return "", 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return text, median(times), nil
}

// verify is one untraced operation through the stable public surface;
// modular verifies against the spec's own domain partition.
func verify(text string, opts yu.VerifyOptions, modular bool) (string, *yu.Report, *yu.Network, error) {
	n, err := yu.LoadString(text)
	if err != nil {
		return "", nil, nil, err
	}
	if modular {
		opts.Domains = n.Spec().Domains
	}
	rep, err := n.Verify(opts)
	if err != nil {
		return "", nil, nil, err
	}
	return canon.FormatReport(n.Topology(), rep), rep, n, nil
}

func (bc batchCase) run(rc runConfig) (*outcome, error) {
	o := newOutcome()
	text, setup, err := bc.setUp(rc)
	if err != nil {
		return nil, err
	}
	var (
		outs          []string
		plain, traced []float64
		layerSamples  = make(map[string][]float64)
		selfSamples   = make(map[string][]float64)
		tracedOuts    []string
	)
	if rc.trace {
		o.tr = newTracer()
	}
	// One untimed operation first, so that the timed ones find the heap
	// grown and the code paths warm; its report is checked like the rest.
	warm, _, _, err := verify(text, bc.opts, bc.modular)
	if err != nil {
		return nil, err
	}
	outs = append(outs, warm)
	// A traced run alternates untraced and traced operations, so it has
	// at least one of each.
	minOps := 1
	if rc.trace {
		minOps = 2
	}
	err = timedLoop(rc.seconds, minOps, func(i int) error {
		// Every operation starts from a collected heap, as a fresh
		// verification would; the collection is not timed.
		runtime.GC()
		if rc.trace && i%2 == 1 {
			t0 := time.Now()
			out, vals, op, err := bc.tracedVerify(o.tr, text)
			if err != nil {
				return err
			}
			traced = append(traced, ms(time.Since(t0)))
			tracedOuts = append(tracedOuts, out)
			for name, v := range vals {
				layerSamples[name] = append(layerSamples[name], v)
			}
			for l, v := range o.tr.selfByLayer(op) {
				selfSamples[l] = append(selfSamples[l], v)
			}
			return nil
		}
		t0 := time.Now()
		out, rep, _, err := verify(text, bc.opts, bc.modular)
		if err != nil {
			return err
		}
		if bc.modular && rep.Modular == nil {
			return fmt.Errorf("compose fell back to the monolithic pipeline")
		}
		plain = append(plain, ms(time.Since(t0)))
		outs = append(outs, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	// Correctness, outside the timed region: every operation's report
	// must equal the reference pipeline's byte for byte, the reference's
	// witnesses must replay in the concrete simulator, and at the default
	// seed the violation keys must be the pinned ones.
	refText, refRep, refNet, err := verify(text, bc.ref, false)
	if err != nil {
		return nil, fmt.Errorf("reference verification: %w", err)
	}
	o.attempted = len(outs) + len(tracedOuts)
	for i, out := range outs {
		if out != refText {
			o.failed++
			o.fail("operation %d: report differs from the reference pipeline's", i)
		}
	}
	for i, out := range tracedOuts {
		// The traced pipeline must render the untraced report byte for
		// byte, or its layer numbers describe some other computation.
		if out != refText {
			o.failed++
			o.fail("traced operation %d: report differs from the untraced one", i)
		}
	}
	if refRep.Incomplete {
		o.fail("reference report is incomplete")
		o.failed = o.attempted
	}
	bad, replayed := replayWitnesses(refNet.Spec(), refRep, rc.seed)
	o.extra["witnesses_replayed"] = float64(replayed)
	if len(bad) > 0 {
		for _, b := range bad {
			o.fail("%s", b)
		}
		o.failed = o.attempted
	}
	keys := canon.ViolationKeys(refNet.Topology(), refRep.Violations)
	o.extra["violation_keys"] = float64(len(keys))
	if rc.seed == defaultSeed && !rc.tiny && bc.pinned.digest != "" {
		if len(keys) != bc.pinned.count || keyDigest(keys) != bc.pinned.digest {
			o.fail("violation keys %d/%s differ from the pinned %d/%s", len(keys), keyDigest(keys), bc.pinned.count, bc.pinned.digest)
			o.failed = o.attempted
		}
	}
	o.extra["failed_ops"] = float64(o.failed) / float64(o.attempted)
	o.extra["samples"] = float64(len(plain))
	if !rc.trace {
		o.metrics["op_ms.p50"] = median(plain)
		o.metrics["setup_s"] = setup
		o.metrics["peak_rss_mb"] = rss
		return o, nil
	}
	for _, m := range perLayer {
		o.metrics[m.Name] = 0
	}
	for name, vs := range layerSamples {
		o.metrics[name] = median(vs)
	}
	for l, vs := range selfSamples {
		o.layers[l] = median(vs)
	}
	o.extra["traced_samples"] = float64(len(traced))
	o.extra["untraced_op_ms"] = median(plain)
	o.extra["traced_op_ms"] = median(traced)
	o.metrics["trace.overhead_ms"] = median(traced) - median(plain)
	return o, nil
}

// tracedVerify is one operation driven layer by layer, mirroring what
// Network.Verify does, with a span around every layer call. It returns
// the canonical report, the per-layer metrics of this operation, and
// its operation ID.
func (bc batchCase) tracedVerify(t *tracer, text string) (string, map[string]float64, int, error) {
	op, root := t.beginOp()
	defer t.end(root)
	vals := make(map[string]float64)
	reg := obs.New()

	s := t.begin(op, "config.parse", root)
	spec, err := config.ParseSpecString(text)
	vals["config.parse_ms"] = ms(t.end(s))
	if err != nil {
		return "", nil, op, err
	}
	k, mode, flows := spec.K, spec.Mode, spec.Flows
	if bc.opts.K > 0 {
		k = bc.opts.K
	}

	var (
		m        *mtbdd.Manager
		ver      *core.Verifier
		primary  *core.Engine
		baseline uint64 // primary-manager nodes created before the check
	)
	if bc.modular {
		s = t.begin(op, "compose.build", root)
		part, err := topo.NewPartition(spec.Net, spec.Domains)
		if err != nil {
			return "", nil, op, err
		}
		built, err := compose.Build(spec.Net, spec.Configs, part, flows, compose.Options{
			K: k, Mode: mode, Workers: bc.opts.Workers, Obs: reg,
		})
		vals["compose.build_ms"] = ms(t.end(s))
		if err != nil {
			return "", nil, op, err
		}
		vals["compose.rounds"] = float64(built.Stats.Rounds)
		vals["compose.contained_classes"] = float64(built.Stats.ContainedClasses)
		vals["compose.fallback_classes"] = float64(built.Stats.FallbackClasses)
		vals["compose.domain_peak_nodes"] = float64(built.Stats.DomainPeakNodes)
		ver, primary = built.Verifier, built.Engine
		m = primary.Manager()
	} else {
		s = t.begin(op, "routesim.igp", root)
		m = mtbdd.New()
		fv := routesim.NewFailVars(m, spec.Net, mode, k)
		igp := routesim.ComputeIGP(fv)
		vals["routesim.igp_ms"] = ms(t.end(s))
		s = t.begin(op, "routesim.bgp", root)
		bgp := routesim.ComputeBGP(fv, spec.Configs, igp)
		vals["routesim.bgp_ms"] = ms(t.end(s))
		s = t.begin(op, "routesim.finish", root)
		rs, err := routesim.FinishRun(fv, spec.Configs, igp, bgp)
		fin := t.end(s)
		if err != nil {
			return "", nil, op, err
		}
		vals["routesim.total_ms"] = vals["routesim.igp_ms"] + vals["routesim.bgp_ms"] + ms(fin)
		routeCreated := m.Stats().Created
		vals["routesim.nodes_created"] = float64(routeCreated)

		s = t.begin(op, "core.execute", root)
		primary = core.NewEngine(rs, core.Options{Configs: spec.Configs, Obs: reg})
		ver = core.NewParallelVerifier(primary, flows, bc.opts.Workers)
		vals["core.execute_ms"] = ms(t.end(s))
		if err := ver.Err(); err != nil {
			return "", nil, op, err
		}
		vals["core.execute_nodes_created"] = float64(m.Stats().Created - routeCreated)
		vals["core.sched_steals"] = float64(ver.SchedStats().Steals)
	}
	baseline = m.Stats().Created

	s = t.begin(op, "core.check", root)
	rep, err := ver.Run(spec.Props, spec.Delivered, bc.opts.OverloadFactor)
	vals["core.check_ms"] = ms(t.end(s))
	if err != nil {
		return "", nil, op, err
	}
	vals["core.check_nodes_created"] = float64(m.Stats().Created - baseline)
	core.RecordManager(reg, "primary", m)

	out := &yu.Report{
		Violations:         rep.Violations,
		Holds:              rep.Holds,
		FlowsTotal:         rep.FlowsTotal,
		FlowsExecuted:      rep.FlowsExecuted,
		LinkStats:          rep.LinkStats,
		Incomplete:         rep.Incomplete,
		Unchecked:          rep.Unchecked,
		UncheckedDelivered: rep.UncheckedDelivered,
		DegradedFlows:      rep.DegradedFlows,
	}
	s = t.begin(op, "canon.format_report", root)
	text = canon.FormatReport(spec.Net, out)
	vals["canon.format_report_ms"] = ms(t.end(s))

	vals["core.flows_executed"] = float64(rep.FlowsExecuted)
	if rep.FlowsTotal > 0 {
		vals["core.global_equiv_ratio"] = float64(rep.FlowsExecuted) / float64(rep.FlowsTotal)
	}
	linkStats(vals, rep.LinkStats)
	managerStats(vals, reg.Snapshot().Managers)
	return text, vals, op, nil
}

// linkStats derives the link-local equivalence ratio and the per-link
// check time distribution from a report's check statistics.
func linkStats(vals map[string]float64, st []core.LinkCheckStat) {
	var flows, classes int
	var times []float64
	for _, s := range st {
		flows += s.Flows
		classes += s.Classes
		times = append(times, ms(s.Elapsed))
	}
	if flows > 0 {
		vals["core.link_local_ratio"] = float64(classes) / float64(flows)
	}
	if len(times) > 0 {
		vals["core.link_check_ms.p50"] = median(times)
		vals["core.link_check_ms.max"] = percentile(times, 100)
	}
}

// managerStats folds the MTBDD managers a run recorded (primary,
// execution and check shards, domains) into the mtbdd.* metrics, and
// adds the shard managers' node creation to the phase that ran them.
func managerStats(vals map[string]float64, managers []obs.ManagerStats) {
	var created, gc float64
	var peak int
	caches := make(map[string]obs.CacheCounters)
	for _, m := range managers {
		created += float64(m.Created)
		gc += float64(m.GCRuns)
		if m.PeakLive > peak {
			peak = m.PeakLive
		}
		switch {
		case strings.HasPrefix(m.Name, "exec-shard."):
			vals["core.execute_nodes_created"] += float64(m.Created)
		case strings.HasPrefix(m.Name, "check-shard."):
			vals["core.check_nodes_created"] += float64(m.Created)
		}
		for k, c := range m.Caches {
			agg := caches[k]
			agg.Hits += c.Hits
			agg.Misses += c.Misses
			caches[k] = agg
		}
	}
	vals["mtbdd.created_nodes"] = created
	vals["mtbdd.peak_live_nodes"] = float64(peak)
	vals["mtbdd.gc_runs"] = gc
	ratio := func(c obs.CacheCounters) float64 {
		if c.Hits+c.Misses == 0 {
			return 0
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	vals["mtbdd.fused_hit_ratio"] = ratio(caches["fused"])
	vals["mtbdd.kreduce_hit_ratio"] = ratio(caches["kreduce"])
	vals["mtbdd.apply_hit_ratio"] = ratio(caches["apply"])
	vals["mtbdd.import_hits"] = float64(caches["import"].Hits)
	vals["mtbdd.import_misses"] = float64(caches["import"].Misses)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
