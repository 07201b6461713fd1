package core

import (
	"strings"
	"testing"

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

// TestSchedulerObsCounters checks the sched.* counter surface of a
// parallel run: the class dedup counter lands in the registry snapshot
// and matches SchedStats, Steals stays 0, and none of the counters,
// timers, or phases of sharded execution is recorded — classes execute
// in the primary manager at every worker count.
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
	rep := mustRun(t, func() (*Report, error) { return v.Run(nil, nil, 1.0) })
	st := v.SchedStats()
	if st.DedupHits <= 0 {
		t.Error("random fixture produced no dedup hits")
	}
	if st.Steals != 0 {
		t.Errorf("SchedStats.Steals = %d, want 0", st.Steals)
	}
	if st.Classes != rep.FlowsExecuted {
		t.Errorf("SchedStats.Classes = %d, report executed %d", st.Classes, rep.FlowsExecuted)
	}
	snap := reg.Snapshot()
	if got, ok := snap.Counters["sched.class_dedup_hits"]; !ok {
		t.Error("counter sched.class_dedup_hits missing from snapshot")
	} else if got != int64(st.DedupHits) {
		t.Errorf("counter sched.class_dedup_hits = %d, SchedStats says %d", got, st.DedupHits)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "sched.") && name != "sched.class_dedup_hits" {
			t.Errorf("unexpected scheduler counter %s", name)
		}
		if strings.HasPrefix(name, "worker.") && strings.HasSuffix(name, ".flows_executed") {
			t.Errorf("unexpected execution worker counter %s", name)
		}
	}
	for name := range snap.TimersMS {
		if strings.HasPrefix(name, "worker.") {
			t.Errorf("unexpected worker timer %s", name)
		}
	}
	for _, p := range snap.Phases {
		if p.Path == "execute/merge" {
			t.Error("unexpected execute/merge phase")
		}
	}
}
