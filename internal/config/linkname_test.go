package config

import (
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/topo"
)

// dashedSpec names its routers the way gen.WAN does (rN-asM), so every
// link name "A-B" carries three '-' of which only the middle one splits
// it into two linked routers.
const dashedSpec = `
router r0-as1 as 1
router r1-as1 as 1
router r2-as2 as 2
link r0-as1 r1-as1
link r1-as1 r2-as2
linkset core r0-as1-r1-as1 r1-as1-r2-as2
property link r0-as1-r1-as1 max 10
property dirlink r1-as1->r2-as2 max 20
tlp link r1-as1-r2-as2 max 5 if-failed r0-as1-r1-as1
tlp util 0.5 link r0-as1-r1-as1
tlp sumload core max 30
failures k 1 mode links
`

// linkNamed returns the ID of the link between routers a and b.
func linkNamed(t *testing.T, net *topo.Network, a, b string) topo.LinkID {
	t.Helper()
	l, ok := net.FindLink(a, b)
	if !ok {
		t.Fatalf("no link %s %s", a, b)
	}
	return l.ID
}

// TestDashedRouterNames: property, tlp subject, if-failed, util link, and
// linkset member names all resolve when router names contain '-'.
func TestDashedRouterNames(t *testing.T) {
	spec, err := ParseSpecString(dashedSpec)
	if err != nil {
		t.Fatal(err)
	}
	l01 := linkNamed(t, spec.Net, "r0-as1", "r1-as1")
	l12 := linkNamed(t, spec.Net, "r1-as1", "r2-as2")
	if len(spec.Props) != 2 || spec.Props[0].Link != l01 || spec.Props[1].Link != l12 {
		t.Errorf("props resolved to %+v, want links %d and %d", spec.Props, l01, l12)
	}
	if got := spec.LinkSets["core"]; len(got) != 2 || got[0] != l01 || got[1] != l12 {
		t.Errorf("linkset core = %v, want [%d %d]", got, l01, l12)
	}
	if len(spec.Portfolio) != 3 {
		t.Fatalf("portfolio has %d properties, want 3", len(spec.Portfolio))
	}
	cond, util := spec.Portfolio[0], spec.Portfolio[1]
	if cond.Link != l12 || !cond.CondSet || cond.CondLink != l01 {
		t.Errorf("conditional tlp = %+v, want link %d if-failed %d", cond, l12, l01)
	}
	if util.AllLinks || util.Link != l01 {
		t.Errorf("util tlp = %+v, want link %d", util, l01)
	}

	props, err := ParsePortfolioString("linkset s r1-as1-r2-as2\ntlp link r0-as1-r1-as1 max 1 if-failed r1-as1-r2-as2\ntlp maxload s max 2\n", spec.Net)
	if err != nil {
		t.Fatal(err)
	}
	if props[0].Link != l01 || props[0].CondLink != l12 || len(props[1].AggLinks) != 1 || props[1].AggLinks[0] != l12 {
		t.Errorf("portfolio file resolved to %+v", props)
	}
}

// TestAmbiguousLinkName: a name that splits into two different pairs of
// linked routers is an error naming both candidates.
func TestAmbiguousLinkName(t *testing.T) {
	base := "router x as 1\nrouter y-z as 1\nrouter x-y as 1\nrouter z as 1\nlink x y-z\nlink x-y z\n"
	for name, line := range map[string]string{
		"property":  "property link x-y-z max 1\n",
		"tlp":       "tlp link x-y-z max 1\n",
		"if-failed": "link x z\ntlp link x-z max 1 if-failed x-y-z\n",
		"linkset":   "linkset s x-y-z\n",
	} {
		_, err := ParseSpecString(base + line)
		if err == nil {
			t.Errorf("%s: ambiguous link name accepted", name)
			continue
		}
		for _, want := range []string{"ambiguous link x-y-z", `"x"-"y-z"`, `"x-y"-"z"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", name, err, want)
			}
		}
	}
}

// TestLinkNameErrors: names that split nowhere into linked routers, or
// have no inner '-', are rejected.
func TestLinkNameErrors(t *testing.T) {
	base := "router a-b as 1\nrouter c as 1\nlink a-b c\n"
	for line, want := range map[string]string{
		"property link a-b max 1\n":            "no link a-b",
		"property link a-bc max 1\n":           "no link a-bc",
		"property link -a-b max 1\n":           "no link -a-b",
		"property link a-b- max 1\n":           "no link a-b-",
		"property link ab max 1\n":             `bad link "ab"`,
		"property link a-b-c max 1\n":          "",
		"tlp link a-b-c max 1 if-failed c-a\n": "if-failed: no link c-a",
	} {
		_, err := ParseSpecString(base + line)
		switch {
		case want == "" && err != nil:
			t.Errorf("%q: %v", line, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%q: error %v, want %q", line, err, want)
		}
	}
}
