package compose

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// multiDomain is a small three-domain network whose flows all stay
// inside their home domain, with the partition its domain lines name.
func multiDomain(t *testing.T) (*config.Spec, *topo.Partition) {
	t.Helper()
	spec, err := gen.MultiDomain(gen.MultiDomainSpec{Domains: 3, RoutersPer: 6, PrefixesPer: 2, FlowsPer: 4, K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	return spec, part
}

// crossBorderFlow sends traffic from domain 0 to the destination of the
// first flow homed in another domain, so it must leave domain 0.
func crossBorderFlow(t *testing.T, spec *config.Spec, part *topo.Partition) topo.Flow {
	t.Helper()
	for _, f := range spec.Flows {
		if part.Domain[f.Ingress] != 0 {
			src, _ := spec.Net.RouterByName("d0r1")
			return topo.Flow{Name: "cross", Ingress: src.ID, Dst: f.Dst, Gbps: 3}
		}
	}
	t.Fatal("no flow outside domain 0")
	return topo.Flow{}
}

func build(t *testing.T, spec *config.Spec, part *topo.Partition, flows []topo.Flow) *Built {
	t.Helper()
	b, err := Build(spec.Net, spec.Configs, part, flows, Options{K: spec.K, Mode: spec.Mode})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// monolithic verifies flows through whole-network route simulation and
// NewVerifier.
func monolithic(t *testing.T, spec *config.Spec, flows []topo.Flow, overload float64) *core.Report {
	t.Helper()
	m := mtbdd.New()
	rs, err := routesim.RunContext(nil, routesim.NewFailVars(m, spec.Net, spec.Mode, spec.K), spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(rs, core.Options{Configs: spec.Configs})
	rep, err := core.NewVerifier(eng, flows).Run(spec.Props, spec.Delivered, overload)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameReport compares two check reports field for field; per-check wall
// times are the only field allowed to differ.
func sameReport(t *testing.T, got, want *core.Report) {
	t.Helper()
	strip := func(st []core.LinkCheckStat) []core.LinkCheckStat {
		out := append([]core.LinkCheckStat(nil), st...)
		for i := range out {
			out[i].Elapsed = 0
		}
		return out
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("violations differ:\n got %+v\nwant %+v", got.Violations, want.Violations)
	}
	if !reflect.DeepEqual(strip(got.LinkStats), strip(want.LinkStats)) {
		t.Errorf("link stats differ:\n got %+v\nwant %+v", strip(got.LinkStats), strip(want.LinkStats))
	}
	if got.Holds != want.Holds || got.FlowsExecuted != want.FlowsExecuted || got.FlowsTotal != want.FlowsTotal ||
		got.Incomplete != want.Incomplete {
		t.Errorf("summary differs: got holds=%v executed=%d total=%d incomplete=%v, want %v/%d/%d/%v",
			got.Holds, got.FlowsExecuted, got.FlowsTotal, got.Incomplete,
			want.Holds, want.FlowsExecuted, want.FlowsTotal, want.Incomplete)
	}
	if !reflect.DeepEqual(got.Unchecked, want.Unchecked) || !reflect.DeepEqual(got.UncheckedDelivered, want.UncheckedDelivered) ||
		!reflect.DeepEqual(got.DegradedFlows, want.DegradedFlows) {
		t.Errorf("unchecked/degraded differ: got %v %v %v, want %v %v %v",
			got.Unchecked, got.UncheckedDelivered, got.DegradedFlows,
			want.Unchecked, want.UncheckedDelivered, want.DegradedFlows)
	}
}

// TestBuildClassAccounting: every equivalence class is either contained
// in its domain or a precision fallback, and intra-domain traffic is
// contained.
func TestBuildClassAccounting(t *testing.T) {
	spec, part := multiDomain(t)
	b := build(t, spec, part, spec.Flows)
	st := b.Stats
	classes := b.Verifier.SchedStats().Classes
	if st.ContainedClasses+st.FallbackClasses != classes {
		t.Fatalf("contained %d + fallback %d != %d classes", st.ContainedClasses, st.FallbackClasses, classes)
	}
	if st.FallbackClasses != 0 {
		t.Errorf("intra-domain flows fell back: %d classes", st.FallbackClasses)
	}
	if st.Domains != 3 || st.BorderLinks != 3 || !st.Converged {
		t.Errorf("stats %+v, want 3 converged domains joined by 3 border links", st)
	}
}

// TestBuildMatchesMonolithic: the assembled verifier's report equals the
// monolithic NewVerifier report field for field.
func TestBuildMatchesMonolithic(t *testing.T) {
	spec, part := multiDomain(t)
	for _, overload := range []float64{0, 0.01} {
		got, err := build(t, spec, part, spec.Flows).Verifier.Run(spec.Props, spec.Delivered, overload)
		if err != nil {
			t.Fatal(err)
		}
		want := monolithic(t, spec, spec.Flows, overload)
		if overload > 0 && len(want.Violations) == 0 {
			t.Fatalf("overload %g: expected violations to compare", overload)
		}
		sameReport(t, got, want)
	}
}

// TestBuildCrossBorderFallback: a flow whose traffic crosses a border
// link is beyond a summary's precision limit — its class is counted as a
// fallback, executed on the check engine, and the report still equals
// the monolithic one.
func TestBuildCrossBorderFallback(t *testing.T) {
	spec, part := multiDomain(t)
	flows := append(append([]topo.Flow(nil), spec.Flows...), crossBorderFlow(t, spec, part))
	b := build(t, spec, part, flows)
	if b.Stats.FallbackClasses != 1 {
		t.Fatalf("fallback classes = %d, want 1 (the cross-border flow)", b.Stats.FallbackClasses)
	}
	got, err := b.Verifier.Run(spec.Props, spec.Delivered, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, got, monolithic(t, spec, flows, 0.01))
}

// TestBuildCanceled: a canceled context stops the build with the typed
// cancellation error.
func TestBuildCanceled(t *testing.T) {
	spec, part := multiDomain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := Build(spec.Net, spec.Configs, part, spec.Flows, Options{K: spec.K, Mode: spec.Mode, Ctx: ctx})
	if !errors.Is(err, govern.ErrCanceled) || b != nil {
		t.Fatalf("Build on a canceled ctx = %v, %v; want nil, ErrCanceled", b, err)
	}
}
