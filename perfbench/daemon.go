package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

var (
	// daemonWAN is the daemon's base network, verified at k=1.
	daemonWAN     = gen.WANSpec{Routers: 40, Links: 80, Prefixes: 12, SRPolicyFraction: 0.2, Seed: 42}
	daemonWANTiny = gen.WANSpec{Routers: 12, Links: 24, Prefixes: 4, SRPolicyFraction: 0.2, Seed: 42}
)

const (
	daemonFlows = 400
	// planChanges bounds how many distinct changes a run can apply;
	// every write of a run uses a fresh change or reverts the last one.
	planChanges = 1000
)

// change is one seeded configuration change and the delta that undoes
// it exactly (the version after the revert has the base text again).
type change struct {
	apply, revert serve.Delta
}

// daemonInput is the daemon workload's generated input.
type daemonInput struct {
	text      string // base specification, canonical
	portfolio string // the read's portfolio text
	plan      []change
}

func genDaemonInput(seed int64, tiny bool) (*daemonInput, error) {
	ws, nflows := daemonWAN, daemonFlows
	if tiny {
		ws, nflows = daemonWANTiny, 60
	}
	spec, err := gen.WAN(ws)
	if err != nil {
		return nil, err
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{
		Count: nflows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: seed + 100,
	})
	if err != nil {
		return nil, err
	}
	spec.K = 1
	text, err := canon.FormatSpec(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &daemonInput{text: text, portfolio: genPortfolio(rng, spec), plan: genPlan(rng, spec, planChanges)}, nil
}

// genPortfolio writes the read's portfolio: a utilization bound on every
// directed link, in seeded order, plus a few delivered and ratio
// properties. It has no if-failed properties: their `C-D` link syntax
// splits at the first '-', and every router name the WAN generator makes
// contains one.
func genPortfolio(rng *rand.Rand, spec *config.Spec) string {
	net := spec.Net
	var sb strings.Builder
	for _, d := range rng.Perm(2 * net.NumLinks()) {
		fmt.Fprintf(&sb, "tlp util 0.9 dirlink %s\n", net.DirLinkName(topo.DirLinkID(d)))
	}
	offered := make(map[netip.Prefix]float64)
	prefixes := gen.Prefixes(spec)
	for _, f := range spec.Flows {
		for _, p := range prefixes {
			if p.Contains(f.Dst) {
				offered[p] += f.Gbps
			}
		}
	}
	for i := 0; i < 3 && i < len(prefixes); i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		fmt.Fprintf(&sb, "tlp delivered %s min %.3f\n", p, offered[p]/2)
		fmt.Fprintf(&sb, "tlp ratio %s min 0.99\n", prefixes[rng.Intn(len(prefixes))])
	}
	return sb.String()
}

// genPlan draws n changes, each valid against the base spec and exactly
// revertible: link cost, local preference, a discard static, an export
// deny, or an extra flow. Together with their reverts they use all eight
// delta operations.
func genPlan(rng *rand.Rand, spec *config.Spec, n int) []change {
	net := spec.Net
	prefixes := gen.Prefixes(spec)
	type peer struct {
		router string
		nb     *config.BGPNeighbor
	}
	var peers []peer
	for _, r := range net.Routers {
		rc := spec.Configs[r.Name]
		if rc == nil {
			continue
		}
		for i := range rc.Neighbors {
			peers = append(peers, peer{r.Name, &rc.Neighbors[i]})
		}
	}
	router := func() string { return net.Routers[rng.Intn(net.NumRouters())].Name }
	plan := make([]change, 0, n)
	for len(plan) < n {
		switch rng.Intn(5) {
		case 0:
			l := net.Link(topo.LinkID(rng.Intn(net.NumLinks())))
			a, b := net.Router(l.A).Name, net.Router(l.B).Name
			if first, _ := net.FindLink(a, b); first != l {
				continue // a parallel link: deltas address the first one
			}
			cost := l.CostAB * int64(2+rng.Intn(4))
			plan = append(plan, change{
				apply:  serve.Delta{Op: "set-link-cost", A: a, B: b, Cost: cost},
				revert: serve.Delta{Op: "set-link-cost", A: a, B: b, Cost: l.CostAB},
			})
		case 1:
			if len(peers) == 0 {
				continue
			}
			p := peers[rng.Intn(len(peers))]
			lp := uint32(50 + 10*rng.Intn(20))
			if lp == p.nb.LocalPref || (p.nb.LocalPref == 0 && lp == config.DefaultLocalPref) {
				continue
			}
			plan = append(plan, change{
				apply:  serve.Delta{Op: "set-local-pref", Router: p.router, Neighbor: p.nb.Addr.String(), LocalPref: lp},
				revert: serve.Delta{Op: "set-local-pref", Router: p.router, Neighbor: p.nb.Addr.String(), LocalPref: p.nb.LocalPref},
			})
		case 2:
			r := router()
			// A /32 on a flow destination splits that flow's class; a
			// /8 elsewhere touches no traffic.
			pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(40 + rng.Intn(60)), 0, 0, 0}), 8)
			if rng.Intn(2) == 0 {
				dst := spec.Flows[rng.Intn(len(spec.Flows))].Dst
				pfx = netip.PrefixFrom(dst, 32)
			}
			if hasStatic(spec.Configs[r], pfx) {
				continue
			}
			plan = append(plan, change{
				apply:  serve.Delta{Op: "add-static", Router: r, Prefix: pfx.String(), Discard: true},
				revert: serve.Delta{Op: "remove-static", Router: r, Prefix: pfx.String()},
			})
		case 3:
			if len(peers) == 0 || len(prefixes) == 0 {
				continue
			}
			p := peers[rng.Intn(len(peers))]
			pfx := prefixes[rng.Intn(len(prefixes))]
			if denies(p.nb, pfx) {
				continue
			}
			plan = append(plan, change{
				apply:  serve.Delta{Op: "add-export-deny", Router: p.router, Neighbor: p.nb.Addr.String(), Prefix: pfx.String()},
				revert: serve.Delta{Op: "remove-export-deny", Router: p.router, Neighbor: p.nb.Addr.String(), Prefix: pfx.String()},
			})
		case 4:
			name := fmt.Sprintf("bench%d", len(plan))
			dst := spec.Flows[rng.Intn(len(spec.Flows))].Dst
			plan = append(plan, change{
				apply: serve.Delta{Op: "add-flow", Flow: name, Ingress: router(),
					Src: netip.AddrFrom4([4]byte{10, 250, byte(len(plan) >> 8), byte(len(plan))}).String(),
					Dst: dst.String(), DSCP: uint8(rng.Intn(2) * 5), Gbps: float64(1 + rng.Intn(10))},
				revert: serve.Delta{Op: "remove-flow", Flow: name},
			})
		}
	}
	return plan
}

func hasStatic(rc *config.Router, pfx netip.Prefix) bool {
	if rc == nil {
		return false
	}
	for _, st := range rc.Statics {
		if st.Prefix == pfx {
			return true
		}
	}
	return false
}

func denies(nb *config.BGPNeighbor, pfx netip.Prefix) bool {
	for _, p := range nb.ExportDeny {
		if p == pfx {
			return true
		}
	}
	return false
}

// daemon is an in-process serve.Server behind a loopback HTTP listener,
// driven by one client over one keep-alive connection.
type daemon struct {
	srv    *serve.Server
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startDaemon loads text into a fresh server and waits for its first
// (cold) report.
func startDaemon(text string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	srv := serve.NewServer(serve.Config{OverloadFactor: 1, Obs: reg})
	d := &daemon{
		srv: srv, reg: reg, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	var rep answer
	if err := d.call(http.MethodPost, "/v1/verify", map[string]string{"spec": text}, &rep); err != nil {
		d.stop()
		return nil, err
	}
	if rep.Error != "" {
		d.stop()
		return nil, fmt.Errorf("cold report: %s", rep.Error)
	}
	return d, nil
}

// stop shuts the listener and waits until the serving goroutine ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("  daemon listener: %v\n", err)
	}
}

// call sends one request and decodes a 200 response into out.
func (d *daemon) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// Response bodies of the daemon's HTTP API (the fields used here): a
// delta's new version, and a report or portfolio answer.
type (
	versionResponse struct {
		Version int64 `json:"version"`
	}
	answer struct {
		Version int64  `json:"version"`
		Report  string `json:"report"`
		Error   string `json:"error"`
	}
)

// exchange is what one closed-loop iteration sent and received.
type exchange struct {
	write   int // plan step: change step/2, applied when even, reverted when odd
	version int64
	report  answer
	query   answer
}

func runDaemon(rc runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		in     *daemonInput
		d      *daemon
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = genDaemonInput(rc.seed, rc.tiny); err != nil {
			return nil, err
		}
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(in.text); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	base, _ := d.srv.SpecText()
	before := d.reg.Snapshot()

	var (
		exchanges              []exchange
		deltaMS, queryMS, opMS []float64
		overheadMS             []float64
		layerSamples           = make(map[string][]float64)
		selfSamples            = make(map[string][]float64)
		cacheHits, cacheMisses int64
	)
	if rc.trace {
		o.tr = newTracer()
	}
	err := timedLoop(rc.seconds, 1, func(i int) error {
		if i/2 >= len(in.plan) {
			return fmt.Errorf("plan exhausted after %d writes", i)
		}
		delta := in.plan[i/2].apply
		if i%2 == 1 {
			delta = in.plan[i/2].revert
		}
		// As in the batch workloads, every iteration starts from a
		// collected heap; the collection is not timed.
		runtime.GC()
		ex := exchange{write: i}
		var t *daemonTrace
		if rc.trace {
			t = newDaemonTrace(o.tr, d.reg)
		}
		t0 := time.Now()
		var vr versionResponse
		s := t.begin("serve.apply")
		if err := d.call(http.MethodPost, "/v1/delta", map[string]any{"deltas": []serve.Delta{delta}}, &vr); err != nil {
			return err
		}
		t.end(s)
		s = t.begin("serve.report")
		if err := d.call(http.MethodGet, "/v1/report", nil, &ex.report); err != nil {
			return err
		}
		t.end(s)
		t2 := time.Now()
		s = t.begin("serve.tlp")
		if err := d.call(http.MethodPost, "/v1/tlp", map[string]string{"portfolio": in.portfolio}, &ex.query); err != nil {
			return err
		}
		t.end(s)
		t3 := time.Now()
		ex.version = vr.Version
		exchanges = append(exchanges, ex)
		deltaMS = append(deltaMS, ms(t2.Sub(t0)))
		queryMS = append(queryMS, ms(t3.Sub(t2)))
		opMS = append(opMS, ms(t3.Sub(t0)))
		if t != nil {
			vals := t.finish()
			overheadMS = append(overheadMS, ms(t.overhead))
			cacheHits += t.counter("serve.class_cache_hits")
			cacheMisses += t.counter("serve.class_cache_misses")
			if err := probeDaemon(o.tr, d, in.portfolio, vals); err != nil {
				return err
			}
			for name, v := range vals {
				layerSamples[name] = append(layerSamples[name], v)
			}
			for l, v := range o.tr.selfByLayer(t.op) {
				selfSamples[l] = append(selfSamples[l], v)
			}
		}
		return nil
	})
	rss := peakRSSMB()
	after := d.reg.Snapshot()
	d.stop()
	if err != nil {
		return nil, err
	}

	if err := checkDaemon(o, in, base, exchanges); err != nil {
		return nil, err
	}
	o.extra["delta_ms.p50"] = median(deltaMS)
	o.extra["delta_ms.p90"] = percentile(deltaMS, 90)
	o.extra["query_ms.p50"] = median(queryMS)
	o.extra["query_ms.p90"] = percentile(queryMS, 90)
	o.extra["op_ms.p90"] = percentile(opMS, 90)
	o.extra["samples"] = float64(len(opMS))
	o.extra["failed_ops"] = float64(o.failed) / float64(o.attempted)
	if !rc.trace {
		o.metrics["op_ms.p50"] = median(opMS)
		o.metrics["setup_s"] = median(setups)
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
	if cacheHits+cacheMisses > 0 {
		o.metrics["serve.stf_hit_ratio"] = float64(cacheHits) / float64(cacheHits+cacheMisses)
	}
	o.metrics["serve.dirty_classes"] = float64(after.Counters["serve.dirty_classes"] - before.Counters["serve.dirty_classes"])
	o.metrics["serve.cache_evictions"] = float64(after.Counters["serve.cache_evictions"] - before.Counters["serve.cache_evictions"])
	o.metrics["trace.overhead_ms"] = median(overheadMS)
	o.extra["untraced_op_ms"] = median(opMS) - median(overheadMS)
	return o, nil
}

// daemonTrace records one traced iteration. The daemon runs route-sim,
// execution and checks inside the server, where the benchmark cannot put
// a span; their time comes from the server's own metrics registry,
// diffed around each request, as child spans of the request's span.
type daemonTrace struct {
	tr       *tracer
	reg      *obs.Registry
	op, root int
	prev     *obs.Snapshot
	first    *obs.Snapshot
	vals     map[string]float64
	// overhead is the time spent taking registry snapshots inside the
	// operation: what tracing adds to it.
	overhead time.Duration
}

func newDaemonTrace(tr *tracer, reg *obs.Registry) *daemonTrace {
	t := &daemonTrace{tr: tr, reg: reg, vals: make(map[string]float64)}
	t.op, t.root = tr.beginOp()
	t.prev = t.snapshot()
	t.first = t.prev
	return t
}

func (t *daemonTrace) snapshot() *obs.Snapshot {
	t0 := time.Now()
	s := t.reg.Snapshot()
	t.overhead += time.Since(t0)
	return s
}

func (t *daemonTrace) begin(name string) int {
	if t == nil {
		return 0
	}
	return t.tr.begin(t.op, name, t.root)
}

// end closes a request span and adds the server-side phases that ran
// during it as its children.
func (t *daemonTrace) end(id int) {
	if t == nil {
		return
	}
	name := t.tr.spans[id-1].Name
	t.vals[name+"_ms"] += ms(t.tr.end(id))
	cur := t.snapshot()
	for _, ph := range []struct{ phase, span string }{
		{"routesim", "routesim.run"},
		{"execute", "core.execute"},
		{"check", "core.check"},
	} {
		d := phaseMS(cur, ph.phase) - phaseMS(t.prev, ph.phase)
		if d > 0 {
			t.tr.child(t.op, ph.span, id, time.Duration(d*float64(time.Millisecond)))
			switch ph.span {
			case "routesim.run":
				t.vals["routesim.total_ms"] += d
			default:
				t.vals[ph.span+"_ms"] += d
			}
		}
	}
	t.prev = cur
}

// finish closes the iteration and returns its per-layer values.
func (t *daemonTrace) finish() map[string]float64 {
	t.tr.end(t.root)
	// Managers recorded during the iteration, one per verification and
	// portfolio run. The server names them all "primary", so the
	// snapshot's by-name order is their recording order.
	managerStats(t.vals, t.prev.Managers[len(t.first.Managers):])
	return t.vals
}

// counter is how much the named server counter grew over the iteration.
func (t *daemonTrace) counter(name string) int64 {
	return t.prev.Counters[name] - t.first.Counters[name]
}

func phaseMS(s *obs.Snapshot, path string) float64 {
	for _, p := range s.Phases {
		if p.Path == path {
			return p.MS
		}
	}
	return 0
}

// probeDaemon times, outside the operation, the layer calls the daemon
// makes internally on this iteration's inputs: parsing the new version's
// text, compiling the portfolio, and rendering the version's report. It
// also reads the version's report statistics from its canonical text.
func probeDaemon(tr *tracer, d *daemon, portfolio string, vals map[string]float64) error {
	text, _ := d.srv.SpecText()
	s := tr.begin(0, "config.parse", 0)
	spec, err := config.ParseSpecString(text)
	vals["config.parse_ms"] = ms(tr.end(s))
	if err != nil {
		return err
	}
	props, err := config.ParsePortfolioString(portfolio, spec.Net)
	if err != nil {
		return err
	}
	s = tr.begin(0, "tlp.compile", 0)
	_, err = tlp.Compile(spec.Net, spec.Flows, props)
	vals["tlp.compile_ms"] = ms(tr.end(s))
	if err != nil {
		return err
	}
	res, err := d.srv.Report()
	if err != nil {
		return err
	}
	if res.Report == nil {
		return fmt.Errorf("no report for version %d", res.Version)
	}
	s = tr.begin(0, "canon.format_report", 0)
	canon.FormatReport(spec.Net, res.Report)
	vals["canon.format_report_ms"] = ms(tr.end(s))
	vals["core.flows_executed"] = float64(res.Report.FlowsExecuted)
	if res.Report.FlowsTotal > 0 {
		vals["core.global_equiv_ratio"] = float64(res.Report.FlowsExecuted) / float64(res.Report.FlowsTotal)
	}
	var flows, classes int
	for _, st := range res.Report.LinkStats {
		flows += st.Flows
		classes += st.Classes
	}
	if flows > 0 {
		vals["core.link_local_ratio"] = float64(classes) / float64(flows)
	}
	return nil
}

// checkDaemon compares every answer the daemon gave with a cold
// Network.Verify and VerifyPortfolio of the same canonical text,
// computed once per distinct version after the timed loop. The daemon
// promises canonical renderings identical to a cold run's, so the
// comparison is byte for byte: a stale warm-cache entry that shifts a
// load without flipping a verdict still shows.
func checkDaemon(o *outcome, in *daemonInput, base string, exchanges []exchange) error {
	type cold struct{ report, portfolio string }
	colds := make(map[string]*cold)
	coldOf := func(text string) (*cold, error) {
		if c := colds[text]; c != nil {
			return c, nil
		}
		n, err := yu.LoadString(text)
		if err != nil {
			return nil, err
		}
		rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 1, Workers: 1})
		if err != nil {
			return nil, err
		}
		props, err := config.ParsePortfolioString(in.portfolio, n.Topology())
		if err != nil {
			return nil, err
		}
		res, err := n.VerifyPortfolio(props, yu.VerifyOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		c := &cold{report: canon.FormatReport(n.Topology(), rep), portfolio: canon.FormatPortfolio(n.Topology(), res)}
		colds[text] = c
		return c, nil
	}
	var applied string
	for _, ex := range exchanges {
		o.attempted += 2
		ch := in.plan[ex.write/2]
		var text string
		var err error
		if ex.write%2 == 0 {
			applied, err = serve.ApplyToText(base, []serve.Delta{ch.apply})
			text = applied
		} else {
			text, err = serve.ApplyToText(applied, []serve.Delta{ch.revert})
		}
		if err != nil {
			return fmt.Errorf("write %d: %w", ex.write, err)
		}
		c, err := coldOf(text)
		if err != nil {
			return fmt.Errorf("cold verification of write %d: %w", ex.write, err)
		}
		switch {
		case ex.report.Error != "" || ex.report.Version != ex.version:
			o.failed++
			o.fail("write %d: report of version %d (wrote %d): %s", ex.write, ex.report.Version, ex.version, ex.report.Error)
		case ex.report.Report != c.report:
			o.failed++
			o.fail("write %d (%s): report differs from a cold verification of the same text", ex.write, ch.apply.Op)
		}
		switch {
		case ex.query.Error != "" || ex.query.Version != ex.version:
			o.failed++
			o.fail("read %d: portfolio of version %d (wrote %d): %s", ex.write, ex.query.Version, ex.version, ex.query.Error)
		case ex.query.Report != c.portfolio:
			o.failed++
			o.fail("read %d (%s): portfolio differs from a cold evaluation of the same text", ex.write, ch.apply.Op)
		}
	}
	o.extra["distinct_versions"] = float64(len(colds))
	return nil
}
