// Command yud is the resident verification daemon: it loads a network
// specification once, verifies it, and keeps all derived state warm so
// configuration deltas re-verify incrementally (only the equivalence
// classes a change actually dirtied are re-executed). Results are
// byte-identical to a cold `yu verify -canon` of the same specification.
//
// Usage:
//
//	yud [-addr HOST:PORT] [-k N] [-mode links|routers|both]
//	    [-overload FACTOR] [-state DIR] [-max-inflight N]
//	    [-request-timeout D] [-verify-timeout D] spec.yu
//
// API (JSON unless noted):
//
//	POST /v1/verify   verify current version, or reload {"spec": ...}
//	POST /v1/delta    apply {"deltas": [...]} atomically
//	GET  /v1/report   verification result of the current version
//	GET  /v1/spec     canonical spec text (text/plain)
//	GET  /v1/metrics  metrics snapshot
//	POST /v1/save     persist warm state now
//	GET  /v1/healthz  liveness + current version
//
// With -state DIR the warm STF cache is persisted on
// shutdown (and on /v1/save) and restored at startup, so a restarted
// daemon verifies an unchanged specification without re-executing
// anything. -state also arms the delta write-ahead log: every accepted
// delta batch is journaled before it is published, so a crashed daemon
// restarted on the same spec file replays the journal and resumes at
// exactly the pre-crash version (DESIGN.md §15).
//
// The YU_FAULTS environment variable arms deterministic fault injection
// (internal/fault) for crash testing; production runs leave it unset.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/serve"
)

type daemonConfig struct {
	addr       string
	k          int
	mode       yu.FailureMode
	modeSet    bool
	overload   float64
	state      string
	spec       string
	inflight   int
	reqTimeout time.Duration
	verTimeout time.Duration
}

// parseDaemonFlags parses and validates yud arguments (same validation
// style as `yu verify`: enumerated flags fail at parse time).
func parseDaemonFlags(args []string, eh flag.ErrorHandling) (*daemonConfig, error) {
	cfg := &daemonConfig{}
	fs := flag.NewFlagSet("yud", eh)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&cfg.k, "k", 0, "failure budget (0 = use the spec's)")
	fs.Func("mode", "failure mode: links, routers, or both (default: spec's)", func(s string) error {
		switch s {
		case "links":
			cfg.mode = yu.FailLinks
		case "routers":
			cfg.mode = yu.FailRouters
		case "both":
			cfg.mode = yu.FailBoth
		default:
			return fmt.Errorf("must be links, routers, or both")
		}
		cfg.modeSet = true
		return nil
	})
	fs.Float64Var(&cfg.overload, "overload", 0, "check all links against FACTOR x capacity")
	fs.StringVar(&cfg.state, "state", "", "directory for persisted warm state and the delta WAL (empty = none)")
	fs.IntVar(&cfg.inflight, "max-inflight", 0, "concurrent request limit, beyond it 503 (0 = default 256)")
	fs.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "per-request deadline before 504 (0 = none)")
	fs.DurationVar(&cfg.verTimeout, "verify-timeout", 0, "per-version verification budget (0 = none)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		err := fmt.Errorf("yud: expected exactly one spec file, got %d arguments", fs.NArg())
		if eh == flag.ExitOnError {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return nil, err
	}
	cfg.spec = fs.Arg(0)
	return cfg, nil
}

// runDaemon loads the spec, serves the API, and blocks until a signal
// arrives on sig; then it drains in-flight requests and persists warm
// state. When ready is non-nil the bound address is sent on it once the
// listener accepts connections (lets tests bind port 0).
func runDaemon(cfg *daemonConfig, stderr io.Writer, ready chan<- string, sig <-chan os.Signal) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "yud:", err)
		return 1
	}
	text, err := os.ReadFile(cfg.spec)
	if err != nil {
		return fail(err)
	}
	if fault.Enabled() {
		fmt.Fprintf(stderr, "yud: fault injection armed: %s\n", fault.Spec())
	}
	s := serve.NewServer(serve.Config{
		K:              cfg.k,
		Mode:           cfg.mode,
		ModeSet:        cfg.modeSet,
		OverloadFactor: cfg.overload,
		StatePath:      cfg.state,
		MaxInFlight:    cfg.inflight,
		RequestTimeout: cfg.reqTimeout,
		VerifyTimeout:  cfg.verTimeout,
	})
	if _, err := s.LoadSpecText(string(text)); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fail(err)
	}
	// No WriteTimeout: verify responses legitimately take minutes on big
	// specs; slow *readers* are bounded by the read and idle limits.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "yud: serving %s on http://%s\n", cfg.spec, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Warm up in the background so the first query is already hot; the
	// sync.Once in the version makes this race-free with early queries.
	go func() {
		start := time.Now()
		res, err := s.Report()
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "yud: initial verification: %v\n", err)
		case res.Err != nil:
			fmt.Fprintf(stderr, "yud: initial verification incomplete: %v\n", res.Err)
		default:
			verdict := "VIOLATED"
			if res.Holds {
				verdict = "VERIFIED"
			}
			fmt.Fprintf(stderr, "yud: initial verification: %s in %v (warm hits %d, misses %d)\n",
				verdict, time.Since(start).Round(time.Millisecond),
				res.Stats.CacheHits, res.Stats.CacheMisses)
		}
	}()

	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if err := s.SaveState(); err != nil {
		fmt.Fprintln(stderr, "yud: saving warm state:", err)
		return 1
	}
	return 0
}

func main() {
	cfg, err := parseDaemonFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		os.Exit(2) // unreachable with ExitOnError; kept for safety
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(runDaemon(cfg, os.Stderr, nil, sig))
}
