// The incremental-vs-cold oracle: random delta sequences applied through
// the daemon (internal/serve) must leave its report byte-identical to a
// cold full verification of the final specification, and every version's
// portfolio answer to a cold portfolio evaluation. This is the
// end-to-end defense of the warm-cache soundness argument — if the
// content-hash invalidation ever under-approximates what a delta dirties,
// the stale class's numbers leak into the report and the byte comparison
// fails.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/topo"
)

// deltaGen tracks what earlier deltas added, so remove operations are
// valid by construction.
type deltaGen struct {
	rng     *rand.Rand
	spec    *config.Spec
	statics map[string]map[netip.Prefix]bool // router -> added static prefixes
	flows   []string                         // added flow names
	nflows  int
	denies  map[string]bool // "router|neighbor|prefix" -> currently denied
}

// GenDeltas derives n daemon deltas from the spec, valid by construction
// when applied in order: every operation targets routers, links, and
// neighbors that exist, and removals only target earlier additions.
// Identical (rng state, spec, n) yield identical sequences.
func GenDeltas(rng *rand.Rand, spec *config.Spec, n int) []serve.Delta {
	g := &deltaGen{rng: rng, spec: spec, statics: make(map[string]map[netip.Prefix]bool), denies: make(map[string]bool)}
	for _, name := range sortedConfigNames(spec.Configs) {
		rc := spec.Configs[name]
		for _, nb := range rc.Neighbors {
			for _, p := range nb.ExportDeny {
				g.denies[name+"|"+nb.Addr.String()+"|"+p.String()] = true
			}
		}
	}
	out := make([]serve.Delta, 0, n)
	for len(out) < n {
		out = append(out, g.next())
	}
	return out
}

func (g *deltaGen) next() serve.Delta {
	for {
		switch g.rng.Intn(7) {
		case 0:
			return g.setLinkCost()
		case 1:
			return g.addStatic()
		case 2:
			if d, ok := g.removeStatic(); ok {
				return d
			}
		case 3:
			return g.addFlow()
		case 4:
			if d, ok := g.removeFlow(); ok {
				return d
			}
		case 5:
			if d, ok := g.setLocalPref(); ok {
				return d
			}
		case 6:
			if d, ok := g.flipExportDeny(); ok {
				return d
			}
		}
	}
}

func (g *deltaGen) routerName() string {
	net := g.spec.Net
	return net.Routers[g.rng.Intn(net.NumRouters())].Name
}

func (g *deltaGen) setLinkCost() serve.Delta {
	net := g.spec.Net
	l := net.Link(topo.LinkID(g.rng.Intn(net.NumLinks())))
	return serve.Delta{
		Op:   "set-link-cost",
		A:    net.Router(l.A).Name,
		B:    net.Router(l.B).Name,
		Cost: int64(1+g.rng.Intn(30)) * 100,
	}
}

func (g *deltaGen) addStatic() serve.Delta {
	r := g.routerName()
	var pfx netip.Prefix
	if len(g.spec.Flows) > 0 && g.rng.Intn(3) == 0 {
		// A /32 on an existing flow destination: splits that flow's
		// prefix class, the sharpest invalidation shape.
		f := g.spec.Flows[g.rng.Intn(len(g.spec.Flows))]
		pfx = netip.PrefixFrom(f.Dst, f.Dst.BitLen())
	} else {
		pfx = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(40 + g.rng.Intn(60)), 0, 0, 0}), 8)
	}
	if g.statics[r] == nil {
		g.statics[r] = make(map[netip.Prefix]bool)
	}
	g.statics[r][pfx] = true
	return serve.Delta{Op: "add-static", Router: r, Prefix: pfx.String(), Discard: true}
}

func (g *deltaGen) removeStatic() (serve.Delta, bool) {
	// Deterministic pick (first router by name, lowest prefix) so equal
	// rng states yield equal sequences — fuzz seeds must reproduce.
	var names []string
	for r, set := range g.statics {
		if len(set) > 0 {
			names = append(names, r)
		}
	}
	if len(names) == 0 {
		return serve.Delta{}, false
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	r := names[0]
	var best netip.Prefix
	for pfx := range g.statics[r] {
		if !best.IsValid() || pfx.String() < best.String() {
			best = pfx
		}
	}
	delete(g.statics[r], best)
	return serve.Delta{Op: "remove-static", Router: r, Prefix: best.String()}, true
}

func (g *deltaGen) addFlow() serve.Delta {
	g.nflows++
	name := fmt.Sprintf("dz%d", g.nflows)
	g.flows = append(g.flows, name)
	dst := netip.AddrFrom4([4]byte{10, byte(g.rng.Intn(200)), 0, byte(1 + g.rng.Intn(200))})
	if len(g.spec.Flows) > 0 && g.rng.Intn(2) == 0 {
		// Reuse an existing destination so the new flow lands in an
		// existing prefix class (exercises class-volume changes).
		dst = g.spec.Flows[g.rng.Intn(len(g.spec.Flows))].Dst
	}
	return serve.Delta{
		Op:      "add-flow",
		Flow:    name,
		Ingress: g.routerName(),
		Src:     netip.AddrFrom4([4]byte{10, 250, 0, byte(1 + g.rng.Intn(250))}).String(),
		Dst:     dst.String(),
		DSCP:    uint8(g.rng.Intn(2) * 5),
		Gbps:    float64(1 + g.rng.Intn(10)),
	}
}

func (g *deltaGen) removeFlow() (serve.Delta, bool) {
	if len(g.flows) == 0 {
		return serve.Delta{}, false
	}
	name := g.flows[len(g.flows)-1]
	g.flows = g.flows[:len(g.flows)-1]
	return serve.Delta{Op: "remove-flow", Flow: name}, true
}

// neighborTarget picks a deterministic (router, neighbor) pair from the
// spec's BGP sessions, if any exist.
func (g *deltaGen) neighborTarget() (string, netip.Addr, bool) {
	var routers []string
	for name, rc := range g.spec.Configs {
		if len(rc.Neighbors) > 0 {
			routers = append(routers, name)
		}
	}
	if len(routers) == 0 {
		return "", netip.Addr{}, false
	}
	// Sort-free determinism: pick by rng over a sorted copy.
	for i := 1; i < len(routers); i++ {
		for j := i; j > 0 && routers[j] < routers[j-1]; j-- {
			routers[j], routers[j-1] = routers[j-1], routers[j]
		}
	}
	r := routers[g.rng.Intn(len(routers))]
	nbs := g.spec.Configs[r].Neighbors
	return r, nbs[g.rng.Intn(len(nbs))].Addr, true
}

func (g *deltaGen) setLocalPref() (serve.Delta, bool) {
	r, nb, ok := g.neighborTarget()
	if !ok {
		return serve.Delta{}, false
	}
	return serve.Delta{
		Op:        "set-local-pref",
		Router:    r,
		Neighbor:  nb.String(),
		LocalPref: uint32(50 + 50*g.rng.Intn(6)),
	}, true
}

// flipExportDeny toggles an export-deny for an originated prefix on a
// random session — the Figure 10 misconfiguration, introduced or
// repaired at random.
func (g *deltaGen) flipExportDeny() (serve.Delta, bool) {
	r, nb, ok := g.neighborTarget()
	if !ok {
		return serve.Delta{}, false
	}
	var originated []netip.Prefix
	for _, name := range sortedConfigNames(g.spec.Configs) {
		originated = append(originated, g.spec.Configs[name].Networks...)
	}
	if len(originated) == 0 {
		return serve.Delta{}, false
	}
	pfx := originated[g.rng.Intn(len(originated))]
	// Track the deny state across the generated sequence so a remove is
	// only ever emitted while the deny is actually in place.
	key := r + "|" + nb.String() + "|" + pfx.String()
	op := "add-export-deny"
	if g.denies[key] {
		op = "remove-export-deny"
	}
	g.denies[key] = !g.denies[key]
	return serve.Delta{Op: op, Router: r, Neighbor: nb.String(), Prefix: pfx.String()}, true
}

func sortedConfigNames(cfgs config.Configs) []string {
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// deltaPortfolio is the portfolio the delta oracle queries on every
// version: all-links utilization, a ratio bound per delivered prefix,
// and one conditional link bound. Deltas never change the topology, so
// the text resolves on every version.
func deltaPortfolio(spec *config.Spec) string {
	var b strings.Builder
	b.WriteString("tlp util 0.8\n")
	for _, d := range spec.Delivered {
		fmt.Fprintf(&b, "tlp ratio %s min 0.9\n", d.Prefix)
	}
	if net := spec.Net; net.NumLinks() >= 2 {
		fmt.Fprintf(&b, "tlp link %s max %g if-failed %s\n",
			net.LinkName(0), net.Link(0).Capacity/2, net.LinkName(1))
	}
	return b.String()
}

// checkPortfolio holds the daemon's portfolio answer for its current
// version to a cold VerifyPortfolio of that version's canonical text,
// byte for byte.
func checkPortfolio(c *Case, s *serve.Server, portfolio string) error {
	res, err := s.EvalPortfolioCtx(context.Background(), portfolio)
	if err != nil {
		return fmt.Errorf("deltas: portfolio: %w", err)
	}
	if res.Err != nil {
		return fmt.Errorf("deltas: portfolio of version %d: %w", res.Version, res.Err)
	}
	text, id := s.SpecText()
	if id != res.Version {
		return fmt.Errorf("deltas: portfolio cites version %d, current is %d", res.Version, id)
	}
	spec, err := config.ParseSpecString(text)
	if err != nil {
		return fmt.Errorf("deltas: version %d does not parse: %w", id, err)
	}
	props, err := config.ParsePortfolioString(portfolio, spec.Net)
	if err != nil {
		return fmt.Errorf("deltas: portfolio on version %d: %w", id, err)
	}
	cold, err := yu.FromSpec(spec).VerifyPortfolio(props, yu.VerifyOptions{
		K: c.K, Mode: c.Mode, ModeSet: true, Workers: 1,
	})
	if err != nil {
		return fmt.Errorf("deltas: cold portfolio: %w", err)
	}
	if want := canon.FormatPortfolio(spec.Net, cold); res.Text != want {
		return fmt.Errorf("deltas: portfolio of version %d diverges from cold\n--- daemon\n%s\n--- cold\n%s", id, res.Text, want)
	}
	return nil
}

// CheckDeltas is the incremental-vs-cold oracle: starting from the
// case's spec, apply n random deltas one at a time through a daemon
// (re-verifying after each, and querying a portfolio on every version
// against a cold VerifyPortfolio of it), then require the final daemon
// report to be byte-identical to (a) a cold full verification of the
// final canonical text and (b) a second, fresh daemon given the final
// text directly.
func CheckDeltas(c *Case, rng *rand.Rand, n int) error {
	text0, err := canon.FormatSpec(c.Spec)
	if err != nil {
		return fmt.Errorf("deltas: format: %w", err)
	}
	cfg := serve.Config{K: c.K, Mode: c.Mode, ModeSet: true, OverloadFactor: c.OverloadFactor}
	s := serve.NewServer(cfg)
	if _, err := s.LoadSpecText(text0); err != nil {
		return fmt.Errorf("deltas: load: %w", err)
	}
	if res, err := s.Report(); err != nil {
		return fmt.Errorf("deltas: initial report: %w", err)
	} else if res.Err != nil {
		return fmt.Errorf("deltas: initial verify: %w", res.Err)
	}
	spec0, err := config.ParseSpecString(text0)
	if err != nil {
		return fmt.Errorf("deltas: reparse: %w", err)
	}
	portfolio := deltaPortfolio(spec0)
	if err := checkPortfolio(c, s, portfolio); err != nil {
		return err
	}
	deltas := GenDeltas(rng, spec0, n)
	var last serve.RunResult
	for i, d := range deltas {
		if _, err := s.ApplyDeltas([]serve.Delta{d}); err != nil {
			return fmt.Errorf("deltas: delta %d rejected (generator contract broken): %w", i, err)
		}
		// Odd versions answer the portfolio before the report, so both
		// orders of the two queries on one run are held to cold.
		if i%2 == 1 {
			if err := checkPortfolio(c, s, portfolio); err != nil {
				return fmt.Errorf("after delta %d: %w", i, err)
			}
		}
		last, err = s.Report()
		if err != nil {
			return fmt.Errorf("deltas: report after delta %d: %w", i, err)
		}
		if last.Err != nil {
			return fmt.Errorf("deltas: verify after delta %d: %w", i, last.Err)
		}
		if i%2 == 0 {
			if err := checkPortfolio(c, s, portfolio); err != nil {
				return fmt.Errorf("after delta %d: %w", i, err)
			}
		}
	}
	finalText, _ := s.SpecText()

	// Cold full verification of the final state.
	spec, err := config.ParseSpecString(finalText)
	if err != nil {
		return fmt.Errorf("deltas: final spec does not parse: %w", err)
	}
	rep, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{
		K: c.K, Mode: c.Mode, ModeSet: true,
		OverloadFactor: c.OverloadFactor, Workers: 1,
	})
	if err != nil {
		return fmt.Errorf("deltas: cold verify: %w", err)
	}
	cold := canon.FormatReport(spec.Net, rep)
	if last.Text != cold {
		return fmt.Errorf("deltas: incremental report diverges from cold after %d deltas\n--- incremental\n%s\n--- cold\n%s\n--- deltas\n%+v",
			n, last.Text, cold, deltas)
	}

	// A fresh daemon given the final text must agree too (canonical
	// text is a fixpoint; versioning adds nothing to the result).
	s2 := serve.NewServer(cfg)
	if _, err := s2.LoadSpecText(finalText); err != nil {
		return fmt.Errorf("deltas: fresh load: %w", err)
	}
	res2, err := s2.Report()
	if err != nil {
		return fmt.Errorf("deltas: fresh report: %w", err)
	}
	if res2.Err != nil {
		return fmt.Errorf("deltas: fresh verify: %w", res2.Err)
	}
	if res2.Text != cold {
		return fmt.Errorf("deltas: fresh daemon diverges from cold\n--- fresh\n%s\n--- cold\n%s", res2.Text, cold)
	}
	return nil
}
