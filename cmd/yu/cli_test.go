package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
)

const testSpec = "../../testdata/motivating.yu"

// TestVerifyFlagRejectsUnknownValues pins the parse-time validation of
// every enumerated flag: a bad value must be a usage error from
// fs.Parse itself (exit 2 under ExitOnError), not a late fatal() after
// the spec file has already been loaded.
func TestVerifyFlagRejectsUnknownValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"on-budget", []string{"-on-budget", "explode", testSpec}},
		{"metrics", []string{"-metrics", "xml", testSpec}},
		{"mode", []string{"-mode", "cables", testSpec}},
		{"engine", []string{"-engine", "warp", testSpec}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseVerifyFlags(tc.args, flag.ContinueOnError); err == nil {
				t.Fatalf("parseVerifyFlags(%v) accepted a bad -%s value", tc.args, tc.name)
			}
		})
	}
}

func TestVerifyFlagAcceptsKnownValues(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		"-k", "2", "-mode", "routers", "-engine", "enumerate",
		"-on-budget", "degrade", "-metrics", "json",
		"-overload", "0.9", "-workers", "3", "-timeout", "5s",
		"-max-nodes", "1000", "-stats",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out", "-trace", "trace.out",
		testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.k != 2 || !cfg.modeSet || cfg.mode != yu.FailRouters {
		t.Errorf("k/mode not parsed: %+v", cfg)
	}
	if cfg.engine != yu.EngineEnumerate || cfg.onBudget != yu.BudgetDegrade {
		t.Errorf("engine/on-budget not parsed: %+v", cfg)
	}
	if cfg.metrics != "json" || cfg.overload != 0.9 || cfg.workers != 3 {
		t.Errorf("metrics/overload/workers not parsed: %+v", cfg)
	}
	if cfg.timeout != 5*time.Second || cfg.maxNodes != 1000 || !cfg.stats {
		t.Errorf("timeout/max-nodes/stats not parsed: %+v", cfg)
	}
	if cfg.cpuprofile != "cpu.out" || cfg.memprofile != "mem.out" || cfg.traceFile != "trace.out" {
		t.Errorf("profile flags not parsed: %+v", cfg)
	}
	if cfg.spec != testSpec {
		t.Errorf("spec = %q, want %q", cfg.spec, testSpec)
	}
}

func TestVerifyFlagDefaults(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.engine != yu.EngineYU || cfg.onBudget != yu.BudgetFail {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.metrics != "" || cfg.modeSet {
		t.Errorf("metrics/mode should default off: %+v", cfg)
	}
}

func TestVerifyRequiresSpecArg(t *testing.T) {
	if _, err := parseVerifyFlags(nil, flag.ContinueOnError); err == nil {
		t.Fatal("parseVerifyFlags with no spec argument should fail")
	}
	if _, err := parseVerifyFlags([]string{"a.yu", "b.yu"}, flag.ContinueOnError); err == nil {
		t.Fatal("parseVerifyFlags with two spec arguments should fail")
	}
}

// metricsDoc mirrors the obs.Snapshot JSON schema as far as the CLI
// contract promises it: per-phase durations and per-cache hit/miss for
// all five MTBDD caches.
type metricsDoc struct {
	Phases []struct {
		Path string  `json:"path"`
		MS   float64 `json:"ms"`
	} `json:"phases"`
	Caches map[string]struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"caches"`
	Managers []struct {
		Name string `json:"name"`
	} `json:"managers"`
}

func TestRunVerifyMetricsJSON(t *testing.T) {
	dir := t.TempDir()
	cfg, err := parseVerifyFlags([]string{
		"-metrics", "json",
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-trace", filepath.Join(dir, "trace.out"),
		testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("runVerify = %d, stdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("VERIFIED")) {
		t.Errorf("stdout missing verdict:\n%s", &stdout)
	}

	// stderr must be exactly one parseable JSON document.
	var doc metricsDoc
	if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
		t.Fatalf("metrics stderr is not valid JSON: %v\n%s", err, &stderr)
	}
	phases := map[string]bool{}
	for _, p := range doc.Phases {
		phases[p.Path] = true
	}
	for _, want := range []string{"parse", "routesim", "execute", "check"} {
		if !phases[want] {
			t.Errorf("metrics missing phase %q (got %v)", want, doc.Phases)
		}
	}
	for _, c := range []string{"apply", "kreduce", "neg", "range", "import"} {
		if _, ok := doc.Caches[c]; !ok {
			t.Errorf("metrics missing cache %q (got %v)", c, doc.Caches)
		}
	}
	if len(doc.Managers) == 0 {
		t.Error("metrics has no manager stats")
	}

	// The profiling flags must have produced real files.
	for _, f := range []string{"cpu.pprof", "mem.pprof", "trace.out"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("profile %s: %v", f, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

func TestRunVerifyMetricsText(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{"-metrics", "text", testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("runVerify = %d, stderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"phases", "caches", "kreduce"} {
		if !bytes.Contains(stderr.Bytes(), []byte(want)) {
			t.Errorf("text metrics missing %q:\n%s", want, &stderr)
		}
	}
}

// TestRunVerifyMetricsOnIncomplete pins the ISSUE contract that metrics
// are emitted on partial/INCOMPLETE runs too: an already-expired
// timeout still produces a parseable metrics document alongside the
// INCOMPLETE verdict.
func TestRunVerifyMetricsOnIncomplete(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		"-metrics", "json", "-timeout", "1ns", testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("runVerify = %d, want 1 (interrupted)\nstdout:\n%s", code, &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("INCOMPLETE")) {
		t.Errorf("stdout missing INCOMPLETE verdict:\n%s", &stdout)
	}
	var doc metricsDoc
	if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
		t.Fatalf("metrics on INCOMPLETE run is not valid JSON: %v\n%s", err, &stderr)
	}
	for _, c := range []string{"apply", "kreduce", "neg", "range", "import"} {
		if _, ok := doc.Caches[c]; !ok {
			t.Errorf("INCOMPLETE metrics missing cache %q", c)
		}
	}
}

func TestRunVerifyBadSpec(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		filepath.Join(t.TempDir(), "missing.yu"),
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("runVerify on missing spec = %d, want 1", code)
	}
}

// TestRunVerifyKZero: an explicit -k 0 verifies the no-failure baseline
// instead of falling back to the spec's budget (k 1 here): the report
// equals the library's KSet, K 0 run byte for byte, names no failure
// witness, and differs from the run without -k.
func TestRunVerifyKZero(t *testing.T) {
	run := func(args ...string) string {
		t.Helper()
		cfg, err := parseVerifyFlags(append(args, testSpec), flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := runVerify(cfg, &stdout, &stderr); code != 1 {
			t.Fatalf("runVerify %v = %d, want 1 (violations)\nstderr:\n%s", args, code, &stderr)
		}
		return stdout.String()
	}
	zero := run("-k", "0", "-overload", "0.6", "-workers", "1", "-canon")
	n, err := yu.LoadFile(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Verify(yu.VerifyOptions{K: 0, KSet: true, OverloadFactor: 0.6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := canon.FormatReport(n.Topology(), rep); zero != want {
		t.Errorf("-k 0 report:\n%s\nwant the KSet, K 0 report:\n%s", zero, want)
	}
	if strings.Contains(zero, "when link") || strings.Contains(zero, "when router") {
		t.Errorf("-k 0 report names a failure witness:\n%s", zero)
	}
	if spec := run("-overload", "0.6", "-workers", "1", "-canon"); spec == zero {
		t.Errorf("-k 0 and the spec's k=1 give the same report:\n%s", zero)
	}
}

// TestRunVerifyTLPDomains: -domains reaches the portfolio engine. `yu
// verify -tlp F -domains spec` prints the same bytes as the run without
// -domains, and its metrics record the compose build that produced them.
func TestRunVerifyTLPDomains(t *testing.T) {
	tlpFile := filepath.Join(t.TempDir(), "wan.tlp")
	portfolio := "tlp util 0.01\ntlp link d0r0-d0r1 max 5 if-failed d0r1-d0r2\n"
	if err := os.WriteFile(tlpFile, []byte(portfolio), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, metricsDoc) {
		t.Helper()
		args = append([]string{"-tlp", tlpFile, "-k", "1", "-workers", "1", "-metrics", "json"}, args...)
		cfg, err := parseVerifyFlags(append(args, "../../testdata/wan-1.yu"), flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := runVerify(cfg, &stdout, &stderr); code != 1 {
			t.Fatalf("runVerify %v = %d, want 1 (violations)\nstderr:\n%s", args, code, &stderr)
		}
		var doc metricsDoc
		if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
			t.Fatalf("metrics: %v\n%s", err, &stderr)
		}
		return stdout.String(), doc
	}
	phases := func(doc metricsDoc) map[string]bool {
		out := map[string]bool{}
		for _, p := range doc.Phases {
			out[p.Path] = true
		}
		return out
	}
	mono, monoDoc := run()
	mod, modDoc := run("-domains", "spec")
	if mod != mono {
		t.Errorf("-domains spec portfolio:\n%s\nwant the monolithic portfolio:\n%s", mod, mono)
	}
	if p := phases(modDoc); !p["compose"] {
		t.Errorf("-domains spec run recorded no compose phase: %v", p)
	}
	if p := phases(monoDoc); p["compose"] {
		t.Errorf("monolithic run recorded a compose phase: %v", p)
	}
}
