package config

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"github.com/yu-verify/yu/internal/topo"
)

// pendingTLP is one parsed-but-unresolved `tlp` line; router names are
// resolved against the network once it exists.
type pendingTLP struct {
	kind     string // "link", "dirlink", "util", "delivered", "ratio", "sumload", "maxload"
	link     string // subject link name "A-B" (link/util), resolved by LinkByName
	a, b     string // subject direction endpoints (dirlink, util dirlink)
	directed bool   // subject named one direction (A->B)
	allLinks bool   // util without a subject link
	setName  string // subject linkset (sumload/maxload)
	pfx      netip.Prefix
	min, max float64
	factor   float64
	condLink string // if-failed link name "C-D"; empty when unconditional
}

// parseTLPLine parses the fields after the `tlp` keyword:
//
//	tlp link A-B [min G] [max G] [if-failed C-D]
//	tlp dirlink A->B [min G] [max G] [if-failed C-D]
//	tlp util F [link A-B | dirlink A->B] [if-failed C-D]
//	tlp delivered PREFIX [min G] [max G] [if-failed C-D]
//	tlp ratio PREFIX [min R] [max R] [if-failed C-D]
//	tlp sumload SET [min G] [max G] [if-failed C-D]
//	tlp maxload SET [min G] [max G] [if-failed C-D]
//
// SET names a `linkset` declared in the same spec (or portfolio file).
func parseTLPLine(f []string) (pendingTLP, error) {
	pt := pendingTLP{min: 0, max: math.Inf(1)}
	if len(f) < 2 {
		return pt, fmt.Errorf("usage: tlp (link A-B | dirlink A->B | util F [link A-B] | delivered PFX | ratio PFX | sumload SET | maxload SET) [min G] [max G] [if-failed C-D]")
	}
	pt.kind = f[0]
	switch f[0] {
	case "link":
		if !validLinkName(f[1]) {
			return pt, fmt.Errorf("bad link %q, want A-B", f[1])
		}
		pt.link = f[1]
	case "dirlink":
		a, b, ok := splitDirLinkName(f[1])
		if !ok {
			return pt, fmt.Errorf("bad dirlink %q, want A->B", f[1])
		}
		pt.a, pt.b, pt.directed = a, b, true
	case "util":
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || math.IsNaN(v) || v <= 0 {
			return pt, fmt.Errorf("bad utilization factor %q", f[1])
		}
		pt.factor = v
		pt.allLinks = true // narrowed by a `link`/`dirlink` option below
	case "delivered", "ratio":
		pfx, err := netip.ParsePrefix(f[1])
		if err != nil {
			return pt, err
		}
		pt.pfx = pfx.Masked()
	case "sumload", "maxload":
		pt.setName = f[1]
	default:
		return pt, fmt.Errorf("tlp wants 'link', 'dirlink', 'util', 'delivered', 'ratio', 'sumload', or 'maxload', got %q", f[0])
	}
	rest := f[2:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return pt, fmt.Errorf("tlp option %q wants a value", rest[0])
		}
		switch rest[0] {
		case "min", "max":
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil || math.IsNaN(v) {
				return pt, fmt.Errorf("bad bound %q", rest[1])
			}
			if pt.kind == "util" {
				return pt, fmt.Errorf("tlp util takes its bound from the factor, not %q", rest[0])
			}
			if rest[0] == "min" {
				pt.min = v
			} else {
				pt.max = v
			}
		case "link":
			if pt.kind != "util" {
				return pt, fmt.Errorf("option %q is only valid on tlp util", rest[0])
			}
			if !validLinkName(rest[1]) {
				return pt, fmt.Errorf("bad link %q, want A-B", rest[1])
			}
			pt.link, pt.allLinks = rest[1], false
		case "dirlink":
			if pt.kind != "util" {
				return pt, fmt.Errorf("option %q is only valid on tlp util", rest[0])
			}
			a, b, ok := splitDirLinkName(rest[1])
			if !ok {
				return pt, fmt.Errorf("bad dirlink %q, want A->B", rest[1])
			}
			pt.a, pt.b, pt.directed, pt.allLinks = a, b, true, false
		case "if-failed":
			if !validLinkName(rest[1]) {
				return pt, fmt.Errorf("bad if-failed link %q, want C-D", rest[1])
			}
			pt.condLink = rest[1]
		default:
			return pt, fmt.Errorf("unknown tlp option %q", rest[0])
		}
		rest = rest[2:]
	}
	if pt.min > pt.max {
		return pt, fmt.Errorf("tlp min %g exceeds max %g", pt.min, pt.max)
	}
	return pt, nil
}

// validLinkName reports whether s has the shape of a link name "A-B":
// a '-' with a name on each side. Dirlink arrows are rejected so "A->B"
// is not silently read as a link. Where to split is decided against the
// network by LinkByName, because router names may contain '-'.
func validLinkName(s string) bool {
	return len(s) >= 3 && !strings.Contains(s, "->") && strings.Contains(s[1:len(s)-1], "-")
}

// LinkByName resolves a link name "A-B" against the network. Router names
// may contain '-' themselves (gen.WAN names its routers rN-asM), so every
// '-' is a candidate split point: the name must split at exactly one of
// them into two routers joined by a link. No such split is an unknown
// link; more than one is an ambiguity, reported with every candidate.
func LinkByName(net *topo.Network, name string) (*topo.Link, error) {
	var found *topo.Link
	var cands []string
	for i := 1; i < len(name)-1; i++ {
		if name[i] != '-' {
			continue
		}
		if l, ok := net.FindLink(name[:i], name[i+1:]); ok {
			found = l
			cands = append(cands, fmt.Sprintf("%q-%q", name[:i], name[i+1:]))
		}
	}
	switch len(cands) {
	case 0:
		return nil, fmt.Errorf("no link %s", name)
	case 1:
		return found, nil
	}
	return nil, fmt.Errorf("ambiguous link %s: it splits into linked routers %s", name, strings.Join(cands, ", "))
}

// findLinks resolves the member names of a linkset.
func findLinks(net *topo.Network, names []string) ([]topo.LinkID, error) {
	links := make([]topo.LinkID, 0, len(names))
	for _, name := range names {
		if !validLinkName(name) {
			return nil, fmt.Errorf("bad link %q, want A-B", name)
		}
		l, err := LinkByName(net, name)
		if err != nil {
			return nil, err
		}
		links = append(links, l.ID)
	}
	return links, nil
}

func splitDirLinkName(s string) (a, b string, ok bool) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", false
	}
	return parts[0], parts[1], true
}

// resolveTLP binds a parsed `tlp` line to the built network; sets supplies
// the named link sets aggregate properties refer to.
func resolveTLP(net *topo.Network, sets map[string][]topo.LinkID, pt pendingTLP) (topo.TLProp, error) {
	var prop topo.TLProp
	switch pt.kind {
	case "link", "dirlink":
		prop.Kind = topo.TLPLinkLoad
	case "util":
		prop.Kind = topo.TLPUtil
		prop.Factor = pt.factor
		prop.AllLinks = pt.allLinks
	case "delivered":
		prop.Kind = topo.TLPDelivered
		prop.Prefix = pt.pfx
	case "ratio":
		prop.Kind = topo.TLPRatio
		prop.Prefix = pt.pfx
	case "sumload", "maxload":
		if pt.kind == "sumload" {
			prop.Kind = topo.TLPSumLoad
		} else {
			prop.Kind = topo.TLPMaxLoad
		}
		links, ok := sets[pt.setName]
		if !ok {
			return prop, fmt.Errorf("unknown linkset %q", pt.setName)
		}
		prop.SetName = pt.setName
		prop.AggLinks = links
	default:
		return prop, fmt.Errorf("unknown tlp kind %q", pt.kind)
	}
	prop.Min, prop.Max = pt.min, pt.max
	switch {
	case pt.directed:
		d, ok := net.FindDirLink(pt.a, pt.b)
		if !ok {
			return prop, fmt.Errorf("no link %s->%s", pt.a, pt.b)
		}
		prop.Link, prop.Dir, prop.DirSpecified = d.Link(), d.Dir(), true
	case pt.link != "":
		l, err := LinkByName(net, pt.link)
		if err != nil {
			return prop, err
		}
		prop.Link = l.ID
	}
	if pt.condLink != "" {
		l, err := LinkByName(net, pt.condLink)
		if err != nil {
			return prop, fmt.Errorf("if-failed: %w", err)
		}
		prop.CondSet, prop.CondLink = true, l.ID
	}
	return prop, nil
}

// ParsePortfolio reads a standalone portfolio file — `tlp` lines resolved
// against an existing network, the payload format of `yu verify -tlp` and
// the daemon's /v1/tlp endpoint. The leading `tlp` keyword on each line is
// optional; `linkset NAME A-B ...` lines declare the link sets aggregate
// properties below them refer to; '#' comments and blank lines are
// ignored.
func ParsePortfolio(r io.Reader, net *topo.Network) ([]topo.TLProp, error) {
	var props []topo.TLProp
	sets := make(map[string][]topo.LinkID)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "linkset" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: usage: linkset NAME A-B [C-D...]", lineno)
			}
			if _, dup := sets[fields[1]]; dup {
				return nil, fmt.Errorf("line %d: duplicate linkset %q", lineno, fields[1])
			}
			links, err := findLinks(net, fields[2:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			sets[fields[1]] = links
			continue
		}
		if fields[0] == "tlp" {
			fields = fields[1:]
		}
		pt, err := parseTLPLine(fields)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		prop, err := resolveTLP(net, sets, pt)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		props = append(props, prop)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return props, nil
}

// ParsePortfolioString is ParsePortfolio on a string.
func ParsePortfolioString(s string, net *topo.Network) ([]topo.TLProp, error) {
	return ParsePortfolio(strings.NewReader(s), net)
}
