package yu_test

import (
	"context"
	"errors"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
)

// TestPreparedMatchesCold: one Prepare answers reports and portfolios,
// in any order and repeatedly, byte-identically to cold Verify and
// VerifyPortfolio runs, with a single route simulation.
func TestPreparedMatchesCold(t *testing.T) {
	for _, file := range []string{"motivating.yu", "misconfig.yu", "sranycast.yu"} {
		n, err := yu.LoadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		net := n.Topology()
		props, err := config.ParsePortfolioString("tlp util 0.7\n", net)
		if err != nil {
			t.Fatal(err)
		}
		opts := yu.VerifyOptions{OverloadFactor: 0.9, Workers: 1}
		coldRep, err := n.Verify(opts)
		if err != nil {
			t.Fatal(err)
		}
		coldRes, err := n.VerifyPortfolio(props, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantReport, wantPortfolio := canon.FormatReport(net, coldRep), canon.FormatPortfolio(net, coldRes)

		reg := yu.NewMetrics()
		opts.Obs = reg
		p, err := n.Prepare(opts)
		if err != nil || p.Err() != nil {
			t.Fatalf("%s: prepare: %v / %v", file, err, p.Err())
		}
		for i := 0; i < 2; i++ {
			res, err := p.Portfolio(context.Background(), props)
			if err != nil {
				t.Fatal(err)
			}
			if got := canon.FormatPortfolio(net, res); got != wantPortfolio {
				t.Errorf("%s: portfolio %d differs from cold\n--- prepared\n%s\n--- cold\n%s", file, i, got, wantPortfolio)
			}
			rep, err := p.Report(context.Background(), n.Spec().Props, n.Spec().Delivered, opts.OverloadFactor)
			if err != nil {
				t.Fatal(err)
			}
			if got := canon.FormatReport(net, rep); got != wantReport {
				t.Errorf("%s: report %d differs from cold\n--- prepared\n%s\n--- cold\n%s", file, i, got, wantReport)
			}
		}
		var runs int64
		for _, ph := range reg.Snapshot().Phases {
			if ph.Path == "routesim" {
				runs = ph.Count
			}
		}
		if runs != 1 {
			t.Errorf("%s: %d route simulations for one Prepare, want 1", file, runs)
		}
	}
}

// TestPreparedCutShort: a Prepare whose context is already canceled
// still returns a handle; every query answers with all targets unchecked
// and the typed error, and a query context canceled after a complete
// Prepare cuts only that query short.
func TestPreparedCutShort(t *testing.T) {
	n, err := yu.LoadFile("testdata/motivating.yu")
	if err != nil {
		t.Fatal(err)
	}
	props, err := config.ParsePortfolioString("tlp util 0.7\ntlp delivered 100.0.0.0/24 min 70\n", n.Topology())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := n.Prepare(yu.VerifyOptions{Ctx: canceled})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(p.Err(), yu.ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", p.Err())
	}
	rep, err := p.Report(context.Background(), n.Spec().Props, n.Spec().Delivered, 0.9)
	if !errors.Is(err, yu.ErrCanceled) || !rep.Incomplete || len(rep.Unchecked) == 0 || len(rep.UncheckedDelivered) != 1 {
		t.Errorf("report of a canceled run: err %v, incomplete %v, unchecked %d/%d",
			err, rep.Incomplete, len(rep.Unchecked), len(rep.UncheckedDelivered))
	}
	res, err := p.Portfolio(context.Background(), props)
	if !errors.Is(err, yu.ErrCanceled) || res.Stats.Unchecked != len(props) {
		t.Errorf("portfolio of a canceled run: err %v, unchecked %d of %d", err, res.Stats.Unchecked, len(props))
	}

	p, err = n.Prepare(yu.VerifyOptions{})
	if err != nil || p.Err() != nil {
		t.Fatalf("prepare: %v / %v", err, p.Err())
	}
	if res, err := p.Portfolio(canceled, props); !errors.Is(err, yu.ErrCanceled) || !res.Incomplete {
		t.Errorf("portfolio under a canceled query context: err %v, incomplete %v", err, res.Incomplete)
	}
	if res, err := p.Portfolio(context.Background(), props); err != nil || res.Incomplete {
		t.Errorf("portfolio after a canceled query: err %v, incomplete %v", err, res.Incomplete)
	}
}

// wanPortfolio mixes every scan shape on wan-1: an all-links utilization
// bound, a delivered bound, a conditional link bound and a directed one.
const wanPortfolio = `tlp util 0.01
tlp delivered 100.0.2.0/24 min 9
tlp link d0r0-d0r1 max 5 if-failed d0r1-d0r2
tlp dirlink d0r2->d0r3 max 1
`

// TestModularPortfolioMatchesMonolithic: VerifyPortfolio honors Domains
// and its canonical output equals the monolithic run's byte for byte.
func TestModularPortfolioMatchesMonolithic(t *testing.T) {
	n, err := yu.LoadFile("testdata/wan-1.yu")
	if err != nil {
		t.Fatal(err)
	}
	net := n.Topology()
	props, err := config.ParsePortfolioString(wanPortfolio, net)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		mono, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: k, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reg := yu.NewMetrics()
		mod, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: k, Workers: 1, Domains: n.Spec().Domains, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		want, got := canon.FormatPortfolio(net, mono), canon.FormatPortfolio(net, mod)
		if got != want {
			t.Errorf("k=%d: modular portfolio differs\n--- modular\n%s\n--- monolithic\n%s", k, got, want)
		}
		if mono.Holds {
			t.Errorf("k=%d: portfolio holds; want violations to compare", k)
		}
		phases := map[string]bool{}
		for _, ph := range reg.Snapshot().Phases {
			phases[ph.Path] = true
		}
		if !phases["compose"] || phases["routesim"] {
			t.Errorf("k=%d: phases %v, want a compose build and no whole-network route simulation", k, phases)
		}
	}
}
