package canon_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// testdataSpecs parses every checked-in spec.
func testdataSpecs(t *testing.T) map[string]*config.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	out := make(map[string]*config.Spec)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.ParseSpecString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = spec
	}
	return out
}

// fixedPoint formats spec, parses the text back, and requires the second
// formatting to reproduce the first byte for byte.
func fixedPoint(t *testing.T, name string, spec *config.Spec) string {
	t.Helper()
	text, err := canon.FormatSpec(spec)
	if err != nil {
		t.Fatalf("%s: format: %v", name, err)
	}
	back, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatalf("%s: canonical text does not parse: %v\n%s", name, err, text)
	}
	again, err := canon.FormatSpec(back)
	if err != nil {
		t.Fatalf("%s: reformat: %v", name, err)
	}
	if again != text {
		t.Fatalf("%s: format is not a fixed point\n--- first\n%s\n--- second\n%s", name, text, again)
	}
	return text
}

// TestFormatSpecFixedPoint: format -> parse -> format reproduces the
// canonical text on every testdata spec.
func TestFormatSpecFixedPoint(t *testing.T) {
	for name, spec := range testdataSpecs(t) {
		fixedPoint(t, name, spec)
	}
}

// TestFormatSpecDashedRouterNames: a gen.WAN network (routers named
// rN-asM) carrying properties, a linkset, and conditional portfolio
// properties on its links formats to a fixed point, and the parsed-back
// properties name the same links.
func TestFormatSpecDashedRouterNames(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 12, Links: 18, Prefixes: 4, RoutersPerAS: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := spec.Net
	if !strings.Contains(net.Router(0).Name, "-") {
		t.Fatalf("gen.WAN router %q has no '-' in its name", net.Router(0).Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "property link %s max 50\n", net.LinkName(0))
	fmt.Fprintf(&b, "property dirlink %s max 40\n", net.DirLinkName(topo.MakeDirLinkID(1, topo.BtoA)))
	fmt.Fprintf(&b, "linkset core %s %s\n", net.LinkName(2), net.LinkName(3))
	fmt.Fprintf(&b, "tlp link %s max 30 if-failed %s\n", net.LinkName(4), net.LinkName(5))
	fmt.Fprintf(&b, "tlp util 0.8 link %s if-failed %s\n", net.LinkName(6), net.LinkName(7))
	b.WriteString("tlp sumload core max 60\n")
	base, err := canon.FormatSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	withProps, err := config.ParseSpecString(strings.Replace(base, "failures k", b.String()+"failures k", 1))
	if err != nil {
		t.Fatal(err)
	}
	text := fixedPoint(t, "wan", withProps)
	back, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Props[0].Link != 0 || back.Props[1].Link != 1 || back.Props[1].Dir != topo.BtoA {
		t.Errorf("properties resolved to %+v", back.Props)
	}
	if got := back.LinkSets["core"]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("linkset core = %v, want [2 3]", got)
	}
	p := back.Portfolio
	if len(p) != 3 || p[0].Link != 4 || p[0].CondLink != 5 || p[1].Link != 6 || p[1].CondLink != 7 {
		t.Errorf("portfolio resolved to %+v", p)
	}
}

// TestFormatReportDeterministic: two independent verifications of each
// testdata spec render byte-identical reports, and rendering one report
// twice does too.
func TestFormatReportDeterministic(t *testing.T) {
	for name, spec := range testdataSpecs(t) {
		if name == "wan-1.yu" {
			continue // the modular-scale spec; the small specs cover rendering
		}
		var texts []string
		for i := 0; i < 2; i++ {
			n := yu.FromSpec(spec)
			rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.9, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			texts = append(texts, canon.FormatReport(spec.Net, rep), canon.FormatReport(spec.Net, rep))
		}
		for _, s := range texts[1:] {
			if s != texts[0] {
				t.Fatalf("%s: report rendering differs\n--- first\n%s\n--- later\n%s", name, texts[0], s)
			}
		}
	}
}

// TestFormatPortfolioDeterministic: two independent evaluations of an
// all-links portfolio on each small testdata spec render byte-identically.
func TestFormatPortfolioDeterministic(t *testing.T) {
	for name, spec := range testdataSpecs(t) {
		if name == "wan-1.yu" {
			continue
		}
		props, err := config.ParsePortfolioString("tlp util 0.5\n", spec.Net)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for i := 0; i < 2; i++ {
			res, err := yu.FromSpec(spec).VerifyPortfolio(props, yu.VerifyOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			texts = append(texts, canon.FormatPortfolio(spec.Net, res))
		}
		if texts[0] != texts[1] {
			t.Fatalf("%s: portfolio rendering differs\n--- first\n%s\n--- second\n%s", name, texts[0], texts[1])
		}
	}
}

// TestFormatPortfolioGroups: on a hand-built result, violations sharing
// a witness failure set render as one group, members by descending
// excess; groups are ordered by their worst excess; holding properties
// are not listed and unchecked ones are.
func TestFormatPortfolioGroups(t *testing.T) {
	spec, err := config.ParseSpecString(readTestdata(t, "motivating.yu"))
	if err != nil {
		t.Fatal(err)
	}
	net := spec.Net
	props, err := config.ParsePortfolioString(
		"tlp link A-B max 1\ntlp link A-C max 2\ntlp link B-C max 3\ntlp link B-D max 4\ntlp link C-D max 5\n", net)
	if err != nil {
		t.Fatal(err)
	}
	bd, _ := net.FindLink("B", "D")
	ce, _ := net.FindLink("C", "E")
	verdicts := []tlp.Verdict{
		{Status: tlp.StatusViolated, Value: 3, Excess: 2, FailedLinks: []topo.LinkID{bd.ID}},
		{Status: tlp.StatusViolated, Value: 12, Excess: 10, FailedLinks: []topo.LinkID{ce.ID}},
		{Status: tlp.StatusViolated, Value: 10, Excess: 7, FailedLinks: []topo.LinkID{bd.ID}},
		{Status: tlp.StatusHolds},
		{Status: tlp.StatusUnchecked},
	}
	r := &tlp.Result{
		Props: props, Verdicts: verdicts, Groups: tlp.GroupVerdicts(verdicts),
		Stats:      tlp.Stats{Properties: 5, Violations: 3, Unchecked: 1, Checks: 5, LinkScans: 4},
		Incomplete: true,
	}
	want := `holds false
properties 5 violated 3 vacuous 0 unchecked 1
group when link C-E max-excess 10
  link A-C max 2 value 12 excess 10
group when link B-D max-excess 7
  link B-C max 3 value 10 excess 7
  link A-B max 1 value 3 excess 2
unchecked link C-D max 5
scans link 4 delivered 0 restrict 0 checks 5
incomplete true
`
	if got := canon.FormatPortfolio(net, r); got != want {
		t.Errorf("FormatPortfolio:\n%s\nwant:\n%s", got, want)
	}
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
