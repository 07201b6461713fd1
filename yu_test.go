package yu

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

func loadMotivating(t testing.TB) *Network {
	t.Helper()
	n, err := LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLoadAndVerifyMotivating(t *testing.T) {
	n := loadMotivating(t)
	if n.Topology().NumRouters() != 6 {
		t.Fatalf("routers = %d", n.Topology().NumRouters())
	}
	rep, err := n.Verify(VerifyOptions{OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("P2 must be violated under 1-link failures")
	}
	if rep.MTBDDNodes == 0 || rep.Elapsed == 0 {
		t.Error("stats missing")
	}
	for _, v := range rep.Violations {
		s := v.Describe(n.Topology())
		if !strings.Contains(s, "Gbps") {
			t.Errorf("Describe = %q", s)
		}
	}
}

func TestEnginesAgreeOnMotivating(t *testing.T) {
	n := loadMotivating(t)
	yuRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	enumRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95, Engine: EngineEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if yuRep.Holds != enumRep.Holds {
		t.Fatalf("YU holds=%v, enumeration holds=%v", yuRep.Holds, enumRep.Holds)
	}
	// Both must flag the same set of overloadable directed links.
	linksOf := func(rep *Report) map[string]bool {
		out := make(map[string]bool)
		for _, v := range rep.Violations {
			if v.Kind == "link-load" {
				out[n.Topology().DirLinkName(v.Link)] = true
			}
		}
		return out
	}
	yuLinks, enLinks := linksOf(yuRep), linksOf(enumRep)
	if len(yuLinks) != len(enLinks) {
		t.Fatalf("flagged links differ: YU=%v enum=%v", yuLinks, enLinks)
	}
	for l := range yuLinks {
		if !enLinks[l] {
			t.Errorf("link %s flagged by YU only", l)
		}
	}
	if enumRep.Scenarios == 0 {
		t.Error("enumeration must count scenarios")
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	n := loadMotivating(t)
	base, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []VerifyOptions{
		{K: 1, OverloadFactor: 0.95, DisableKReduce: true},
		{K: 1, OverloadFactor: 0.95, DisableLinkLocalEquiv: true},
		{K: 1, OverloadFactor: 0.95, DisableGlobalEquiv: true},
	} {
		rep, err := n.Verify(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Holds != base.Holds || len(rep.Violations) != len(base.Violations) {
			t.Errorf("ablation %+v changed the verdict: %d vs %d violations",
				opts, len(rep.Violations), len(base.Violations))
		}
		for _, v := range rep.Violations {
			if len(v.FailedLinks)+len(v.FailedRouters) > 1 {
				t.Errorf("ablation %+v produced a witness beyond k=1", opts)
			}
		}
	}
}

func TestShortestPathEngineOnFatTree(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 6, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := FromSpec(spec)
	spRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows, Engine: EngineShortestPath})
	if err != nil {
		t.Fatal(err)
	}
	yuRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	// On a pure-eBGP FatTree the QARC model is faithful, so verdicts
	// must agree.
	if spRep.Holds != yuRep.Holds {
		t.Errorf("QARC-style holds=%v, YU holds=%v", spRep.Holds, yuRep.Holds)
	}
}

func TestRouterFailureMode(t *testing.T) {
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1, Mode: FailRouters, ModeSet: true, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Failing router D forces all of f2 through C: C-E overloads.
	found := false
	for _, v := range rep.Violations {
		for _, r := range v.FailedRouters {
			if n.Topology().Router(r).Name == "D" {
				found = true
			}
		}
		if len(v.FailedLinks) != 0 {
			t.Error("link failures must not appear in router mode")
		}
	}
	if !found {
		t.Error("expected a router-D violation")
	}
}

func TestVerifySpecProperties(t *testing.T) {
	// The spec's own P1 (delivered >= 70) holds at k=1.
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("P1 must hold at k=1: %+v", rep.Violations)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString("bogus"); err == nil {
		t.Error("bad spec must fail")
	}
	if _, err := LoadFile("/nonexistent/x.yu"); err == nil {
		t.Error("missing file must fail")
	}
}

// TestPerformanceSmoke keeps the paper-scale configurations within a
// sane wall-clock envelope so regressions surface in CI.
func TestPerformanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 21.0/56.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := FromSpec(spec).Verify(VerifyOptions{K: 2, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FT-4 k=2 %d flows: %v (%d MTBDD nodes, %d violations)",
		len(flows), rep.Elapsed, rep.MTBDDNodes, len(rep.Violations))
	if time.Since(start) > 2*time.Minute {
		t.Errorf("FT-4 k=2 took %v, expected well under 2m", time.Since(start))
	}
}

func TestBothFailureMode(t *testing.T) {
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1, Mode: FailBoth, ModeSet: true, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Both link and router witnesses must be representable; at k=1 the
	// link-failure violations of P2 must still be found.
	if rep.Holds {
		t.Fatal("P2 must be violated in both-mode too")
	}
	sawLink, sawRouter := false, false
	for _, v := range rep.Violations {
		if len(v.FailedLinks)+len(v.FailedRouters) > 1 {
			t.Errorf("witness exceeds k=1: %+v", v)
		}
		if len(v.FailedLinks) == 1 {
			sawLink = true
		}
		if len(v.FailedRouters) == 1 {
			sawRouter = true
		}
	}
	if !sawLink && !sawRouter {
		t.Error("expected at least one nonempty witness")
	}
}

// TestVerifyWorkersMatchesSequential drives the parallel pipeline through
// the public API: identical violations and stats at any worker count.
func TestVerifyWorkersMatchesSequential(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 300, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 107,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := FromSpec(spec)
	seq, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.6, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	par, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.6, Flows: flows, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Holds != par.Holds || len(seq.Violations) != len(par.Violations) {
		t.Fatalf("sequential holds=%v/%d violations, workers=4 holds=%v/%d",
			seq.Holds, len(seq.Violations), par.Holds, len(par.Violations))
	}
	for i := range seq.Violations {
		a, b := seq.Violations[i], par.Violations[i]
		if a.Kind != b.Kind || a.Link != b.Link || a.Value != b.Value {
			t.Fatalf("violation %d differs: %+v vs %+v", i, a, b)
		}
	}
	if seq.FlowsExecuted != par.FlowsExecuted || len(seq.LinkStats) != len(par.LinkStats) {
		t.Fatalf("stats differ: executed %d vs %d, link stats %d vs %d",
			seq.FlowsExecuted, par.FlowsExecuted, len(seq.LinkStats), len(par.LinkStats))
	}
}

// noFailureLoads simulates the network concretely with nothing failed.
func noFailureLoads(n *Network) map[DirLinkID]float64 {
	sim := concrete.NewSim(n.Topology(), n.Spec().Configs)
	return sim.Simulate(concrete.NewScenario(n.Topology()), n.Spec().Flows).Load
}

// TestVerifyKSetZero: KSet with K 0 requests the no-failure baseline
// (the spec says k 1). Every violation then has an empty witness and the
// load the concrete no-failure simulation computes, and the violated
// links are exactly those the simulation overloads.
func TestVerifyKSetZero(t *testing.T) {
	n, err := LoadFile("testdata/motivating.yu")
	if err != nil {
		t.Fatal(err)
	}
	const factor = 0.6
	rep, err := n.Verify(VerifyOptions{K: 0, KSet: true, OverloadFactor: factor})
	if err != nil {
		t.Fatal(err)
	}
	loads := noFailureLoads(n)
	want := make(map[DirLinkID]bool)
	for l, g := range loads {
		if g > factor*n.Topology().Link(l.Link()).Capacity {
			want[l] = true
		}
	}
	got := make(map[DirLinkID]bool)
	for _, v := range rep.Violations {
		if len(v.FailedLinks) > 0 || len(v.FailedRouters) > 0 {
			t.Errorf("k=0 violation has a failure witness: %s", v.Describe(n.Topology()))
		}
		if v.Kind != "link-load" {
			t.Errorf("unexpected %s violation at k=0 (delivery holds without failures)", v.Kind)
			continue
		}
		got[v.Link] = true
		if math.Abs(v.Value-loads[v.Link]) > 1e-9 {
			t.Errorf("%s: value %g, concrete no-failure load %g", n.Topology().DirLinkName(v.Link), v.Value, loads[v.Link])
		}
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("violated links %v, concrete overloads %v", got, want)
	}
	for l := range want {
		if !got[l] {
			t.Errorf("%s is overloaded without failures but not reported", n.Topology().DirLinkName(l))
		}
	}
	// Without KSet, K 0 keeps the spec's budget (k 1), under which some
	// violation needs a failure.
	spec, err := n.Verify(VerifyOptions{OverloadFactor: factor})
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, v := range spec.Violations {
		failed = failed || len(v.FailedLinks) > 0
	}
	if !failed {
		t.Error("K 0 without KSet did not keep the spec's k=1 budget")
	}
}

// TestVerifyPortfolioKSetZero: a portfolio evaluated with KSet, K 0
// sees exactly the concrete no-failure loads. Each directed link gets a
// bound 0.5 Gbps below its load (violated, with that value and an
// empty witness) and one 0.5 Gbps above it (holds).
func TestVerifyPortfolioKSetZero(t *testing.T) {
	n, err := LoadFile("testdata/motivating.yu")
	if err != nil {
		t.Fatal(err)
	}
	loads := noFailureLoads(n)
	var props []TLProp
	var dirs []DirLinkID
	for li := 0; li < n.Topology().NumLinks(); li++ {
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			l := topo.MakeDirLinkID(topo.LinkID(li), d)
			if loads[l] <= 0 {
				continue
			}
			dirs = append(dirs, l)
			base := TLProp{Kind: topo.TLPLinkLoad, Link: l.Link(), Dir: d, DirSpecified: true}
			below, above := base, base
			below.Max = loads[l] - 0.5
			above.Max = loads[l] + 0.5
			props = append(props, below, above)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no loaded links")
	}
	res, err := n.VerifyPortfolio(props, VerifyOptions{K: 0, KSet: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range dirs {
		name := n.Topology().DirLinkName(l)
		below, above := res.Verdicts[2*i], res.Verdicts[2*i+1]
		if below.Status != tlp.StatusViolated || math.Abs(below.Value-loads[l]) > 1e-9 ||
			len(below.FailedLinks) > 0 || len(below.FailedRouters) > 0 {
			t.Errorf("%s below its load: %+v, want violated at %g with nothing failed", name, below, loads[l])
		}
		if above.Status != tlp.StatusHolds {
			t.Errorf("%s above its load: status %v, want holds", name, above.Status)
		}
	}
}
