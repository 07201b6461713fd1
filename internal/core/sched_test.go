package core

import (
	"hash/fnv"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

func schedFixture(t *testing.T) (*Engine, []topo.Flow) {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows
}

// TestClassifyFlows pins the class structure: classOf maps every input
// flow to its class, member counts and summed volumes add up, and first-
// seen order matches the historical mergeFlows order.
func TestClassifyFlows(t *testing.T) {
	e, flows := schedFixture(t)
	classes, classOf := classifyFlows(e, flows)
	if len(classOf) != len(flows) {
		t.Fatalf("classOf has %d entries for %d flows", len(classOf), len(flows))
	}
	if len(classes) >= len(flows) {
		t.Fatalf("no dedup on the random fixture: %d classes from %d flows", len(classes), len(flows))
	}
	members := make([]int, len(classes))
	volume := make([]float64, len(classes))
	for fi, ci := range classOf {
		if ci < 0 || ci >= len(classes) {
			t.Fatalf("flow %d mapped to out-of-range class %d", fi, ci)
		}
		members[ci]++
		volume[ci] += flows[fi].Gbps
	}
	hits := 0
	for ci := range classes {
		if classes[ci].members != members[ci] {
			t.Fatalf("class %d: members %d, classOf says %d", ci, classes[ci].members, members[ci])
		}
		if diff := classes[ci].rep.Gbps - volume[ci]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("class %d: rep volume %.9g, member sum %.9g", ci, classes[ci].rep.Gbps, volume[ci])
		}
		hits += classes[ci].members - 1
	}
	if got := dedupHits(classes); got != hits {
		t.Fatalf("dedupHits = %d, want %d", got, hits)
	}
	merged := mergeFlows(e, flows)
	for i := range classes {
		if merged[i] != classes[i].rep {
			t.Fatalf("class %d rep diverges from mergeFlows order", i)
		}
	}

	// Disabled global equivalence: identity classification.
	e2, _ := schedFixture(t)
	e2.opts.DisableGlobalEquiv = true
	id, idOf := classifyFlows(e2, flows)
	if len(id) != len(flows) || dedupHits(id) != 0 {
		t.Fatalf("disabled equiv still merged: %d classes, %d hits", len(id), dedupHits(id))
	}
	for i := range idOf {
		if idOf[i] != i {
			t.Fatalf("disabled equiv classOf[%d] = %d", i, idOf[i])
		}
	}
}

// TestBuildChunksCoverAndOrder checks the chunking invariants: every
// class appears in exactly one chunk, and chunk heads are cost-ordered
// (descending), so expensive work is dequeued first.
func TestBuildChunksCoverAndOrder(t *testing.T) {
	e, flows := schedFixture(t)
	classes, _ := classifyFlows(e, flows)
	classCosts(e, classes)
	for i := range classes {
		if classes[i].cost <= 0 {
			t.Fatalf("class %d has non-positive cost %g", i, classes[i].cost)
		}
	}
	chunks := buildChunks(classes, 4)
	if len(chunks) == 0 {
		t.Fatal("no chunks")
	}
	seen := make(map[int]bool)
	prev := classes[chunks[0][0]].cost
	for _, ch := range chunks {
		if len(ch) == 0 {
			t.Fatal("empty chunk")
		}
		if c := classes[ch[0]].cost; c > prev {
			t.Fatalf("chunk head cost %g after %g: not descending", c, prev)
		} else {
			prev = c
		}
		for _, ci := range ch {
			if seen[ci] {
				t.Fatalf("class %d in two chunks", ci)
			}
			seen[ci] = true
		}
	}
	if len(seen) != len(classes) {
		t.Fatalf("chunks cover %d of %d classes", len(seen), len(classes))
	}
}

// TestCostHintsOverrideHeuristic checks the warm-start path: a hint keyed
// by the stable class key wins over the topology heuristic.
func TestCostHintsOverrideHeuristic(t *testing.T) {
	e, flows := schedFixture(t)
	classes, _ := classifyFlows(e, flows)
	e.opts.CostHints = map[string]float64{classes[0].key: 123456}
	classCosts(e, classes)
	if classes[0].cost != 123456 {
		t.Fatalf("hinted class cost = %g, want 123456", classes[0].cost)
	}
}

// TestCostHintsRoundTrip feeds a sequential run's measured cost map back
// into the parallel verifier: the report must stay identical and the
// hints must be non-trivial.
func TestCostHintsRoundTrip(t *testing.T) {
	e, flows := schedFixture(t)
	seq := NewVerifier(e, flows)
	hints := seq.CostHints()
	if len(hints) == 0 {
		t.Fatal("sequential run measured no costs")
	}

	seqRep := mustRun(t, func() (*Report, error) { return seq.Run(nil, nil, 1.0) })
	e2, _ := schedFixture(t)
	e2.opts.CostHints = hints
	par := NewParallelVerifier(e2, flows, 4)
	parRep := mustRun(t, func() (*Report, error) { return par.Run(nil, nil, 1.0) })
	reportsEqual(t, "hints-warm-start", seqRep, parRep)
}

// TestSchedulerNoIdleWorkers pins satellite 1: the scheduler never spawns
// a goroutine with no chunk to run. With fewer classes than workers the
// spawn count collapses to the class count, and every spawned worker's
// flow counter is visible in stats.
func TestSchedulerNoIdleWorkers(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 12, Links: 24, Prefixes: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	all, err := flowgen.Random(spec, flowgen.RandomSpec{Count: 40, DistinctDstPerPrefix: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ flows, workers int }{{3, 8}, {1, 4}, {40, 64}} {
		flows := all[:tc.flows]
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		v := NewParallelVerifier(eng, flows, tc.workers)
		if v.Err() != nil {
			t.Fatal(v.Err())
		}
		st := v.SchedStats()
		if st.Workers > st.Classes {
			t.Fatalf("flows=%d workers=%d: spawned %d workers for %d classes",
				tc.flows, tc.workers, st.Workers, st.Classes)
		}
		if st.Workers > st.Chunks {
			t.Fatalf("flows=%d workers=%d: spawned %d workers for %d chunks",
				tc.flows, tc.workers, st.Workers, st.Chunks)
		}
		if st.Workers <= 0 || st.Chunks <= 0 {
			t.Fatalf("flows=%d workers=%d: empty sched stats %+v", tc.flows, tc.workers, st)
		}
	}

	// Zero flows: no goroutines, no chunks, a well-formed empty verifier.
	engZ := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	vz := NewParallelVerifier(engZ, nil, 8)
	if st := vz.SchedStats(); st.Workers != 0 || st.Chunks != 0 || st.Classes != 0 {
		t.Fatalf("zero flows spawned work: %+v", st)
	}
}

// TestSchedulerObsCounters checks satellite 2's counter surface: the
// sched.* counters land in the registry snapshot with consistent values.
func TestSchedulerObsCounters(t *testing.T) {
	reg := obs.New()
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{Obs: reg})
	v := NewParallelVerifier(eng, flows, 4)
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
	st := v.SchedStats()
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"sched.workers_spawned":  int64(st.Workers),
		"sched.chunks":           int64(st.Chunks),
		"sched.steals":           int64(st.Steals),
		"sched.class_dedup_hits": int64(st.DedupHits),
	} {
		if got, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing from snapshot", name)
		} else if got != want {
			t.Errorf("counter %s = %d, SchedStats says %d", name, got, want)
		}
	}
	if _, ok := snap.Counters["sched.queue_depth_hw"]; !ok {
		t.Error("counter sched.queue_depth_hw missing from snapshot")
	}
	if st.DedupHits <= 0 {
		t.Error("random fixture produced no dedup hits")
	}
	// Per-worker busy timers: one per spawned worker, non-negative.
	busy := 0
	for name := range snap.TimersMS {
		if len(name) > 7 && name[:7] == "worker." && name[len(name)-5:] == ".busy" {
			busy++
		}
	}
	if busy != st.Workers {
		t.Errorf("%d worker busy timers, %d workers spawned", busy, st.Workers)
	}
}

// TestStealingDeterminism runs the stealing scheduler twice with
// different adversarial per-flow delays injected through testExecHook —
// perturbing which worker executes which chunk and when steals happen —
// and requires byte-identical reports. This is the §13 determinism
// invariant: scheduling must be invisible in the output.
func TestStealingDeterminism(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(salt uint32) *Report {
		t.Helper()
		testExecHook = func(f topo.Flow) {
			h := fnv.New32a()
			h.Write([]byte(f.String()))
			// Delay 0–300µs, flow- and salt-dependent: runs with different
			// salts interleave workers differently and steal differently.
			time.Sleep(time.Duration((h.Sum32()^salt)%4) * 100 * time.Microsecond)
		}
		defer func() { testExecHook = nil }()
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		v := NewParallelVerifier(eng, flows, 4)
		return mustRun(t, func() (*Report, error) { return v.Run(nil, nil, 0.5) })
	}
	a := run(0x00000000)
	b := run(0x9e3779b9)
	reportsEqual(t, "stealing-determinism", a, b)
}
