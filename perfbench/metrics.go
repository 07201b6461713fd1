package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef describes one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json declares (a share of the parent's
// median); per-layer metrics have none, and instead name the end-to-end
// metric and workloads they should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. One operation is one verification (spec
// text in memory to canonical report) on the batch workloads and one
// closed-loop iteration (a delta to its verdict, then a portfolio query)
// on daemon-mix. There is no tail percentile: a batch run has too few
// operations for one with ten samples beyond it, and on daemon-mix the
// delta and query p90s are recorded with the run instead.
var endToEnd = []metricDef{
	{Name: "op_ms.p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, named <layer>.<what>: medians
// over the traced operations. A workload that never calls a layer
// reports its metrics as 0.
var perLayer = []metricDef{
	{Name: "config.parse_ms", Unit: "ms", Better: "lower", Moves: "op_ms everywhere (the daemon parses on every write)"},
	{Name: "routesim.igp_ms", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k1, wan-k2 (extra)"},
	{Name: "routesim.bgp_ms", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "routesim.total_ms", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k1, daemon-mix"},
	{Name: "routesim.nodes_created", Unit: "count", Better: "lower", Moves: "peak_rss_mb on wan-k1, wan-k2 (extra)"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "core.flows_executed", Unit: "count", Better: "lower", Moves: "op_ms on wan-k1, daemon-mix"},
	{Name: "core.global_equiv_ratio", Unit: "ratio", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "core.execute_nodes_created", Unit: "count", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "core.sched_steals", Unit: "count", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "core.check_ms", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "core.check_nodes_created", Unit: "count", Better: "lower", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "core.link_local_ratio", Unit: "ratio", Better: "lower", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "core.link_check_ms.p50", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "core.link_check_ms.max", Unit: "ms", Better: "lower", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "mtbdd.peak_live_nodes", Unit: "count", Better: "lower", Moves: "peak_rss_mb everywhere"},
	{Name: "mtbdd.created_nodes", Unit: "count", Better: "lower", Moves: "op_ms everywhere"},
	{Name: "mtbdd.fused_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "mtbdd.kreduce_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "mtbdd.apply_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms on wan-k2 (extra), wan-k1"},
	{Name: "mtbdd.import_hits", Unit: "count", Better: "higher", Moves: "op_ms on wan-k1"},
	{Name: "mtbdd.import_misses", Unit: "count", Better: "lower", Moves: "op_ms on wan-k1"},
	{Name: "mtbdd.gc_runs", Unit: "count", Better: "lower", Moves: "op_ms, peak_rss_mb everywhere"},
	{Name: "compose.build_ms", Unit: "ms", Better: "lower", Moves: "op_ms on modular-wan"},
	{Name: "compose.rounds", Unit: "count", Better: "lower", Moves: "op_ms on modular-wan"},
	{Name: "compose.contained_classes", Unit: "count", Better: "higher", Moves: "op_ms on modular-wan"},
	{Name: "compose.fallback_classes", Unit: "count", Better: "lower", Moves: "op_ms on modular-wan"},
	{Name: "compose.domain_peak_nodes", Unit: "count", Better: "lower", Moves: "peak_rss_mb on modular-wan"},
	{Name: "tlp.compile_ms", Unit: "ms", Better: "lower", Moves: "op_ms on daemon-mix (the query)"},
	{Name: "serve.apply_ms", Unit: "ms", Better: "lower", Moves: "op_ms on daemon-mix (the delta)"},
	{Name: "serve.report_ms", Unit: "ms", Better: "lower", Moves: "op_ms on daemon-mix (the delta)"},
	{Name: "serve.tlp_ms", Unit: "ms", Better: "lower", Moves: "op_ms on daemon-mix (the query)"},
	{Name: "serve.stf_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms on daemon-mix"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: "op_ms on daemon-mix"},
	{Name: "serve.dirty_classes", Unit: "count", Better: "lower", Moves: "op_ms on daemon-mix"},
	{Name: "canon.format_report_ms", Unit: "ms", Better: "lower", Moves: "op_ms everywhere"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower", Moves: "nothing: traced minus untraced operation time"},
}

// layers are the package-level layers a span can belong to, in pipeline
// order; "bench" is the benchmark's own glue between layer calls.
var layers = []string{"config", "routesim", "core", "mtbdd", "compose", "tlp", "serve", "canon", "bench"}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile by the same exclusive
// method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// The 'exclusive' method of statistics.quantiles, line for line
		// (including its clamping and extrapolation at the ends).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo identifies the machine, toolchain and source a record was
// measured on.
type hostInfo struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GitRevision  string `json:"git_revision"`
	SourceDigest string `json:"source_digest"`
}

func currentHost(root string) hostInfo {
	return hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GitRevision:  gitRevision(root),
		SourceDigest: sourceDigest(root),
	}
}

// gitRevision reads HEAD from the .git directory without running git;
// "unknown" outside a git checkout.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so
// records from checkouts without git history still say which code ran.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
