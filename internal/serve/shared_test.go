// Tests for the shared symbolic run: a version's report and every
// portfolio query on it are answered from one route simulation and one
// execution, and concurrent reports, queries, and deltas each answer
// exactly what a cold run of the version they cite answers.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/difftest"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/serve"
)

// sharedPortfolio mixes every check path of the batch engine on the
// Figure 1 network: a link bound, a delivered bound, a conditional
// bound, and all-links utilization.
const sharedPortfolio = "tlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\n" +
	"tlp link D-E max 105 if-failed B-D\ntlp util 0.9\n"

// coldAnswers renders a cold Verify (at overload factor 0.95) and a cold
// VerifyPortfolio of sharedPortfolio for one canonical spec text.
func coldAnswers(t *testing.T, text string) (report, portfolio string) {
	t.Helper()
	n, err := yu.LoadString(text)
	if err != nil {
		t.Fatalf("cold parse: %v", err)
	}
	rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, Workers: 1})
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	props, err := config.ParsePortfolioString(sharedPortfolio, n.Topology())
	if err != nil {
		t.Fatalf("cold portfolio parse: %v", err)
	}
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatalf("cold portfolio: %v", err)
	}
	return canon.FormatReport(n.Topology(), rep), canon.FormatPortfolio(n.Topology(), res)
}

// TestOneRouteSimPerVersion: one version answering portfolio queries
// before and after its report runs route simulation and execution
// exactly once, and every answer equals the cold one.
func TestOneRouteSimPerVersion(t *testing.T) {
	reg := obs.New()
	s := serve.NewServer(serve.Config{OverloadFactor: 0.95, Obs: reg})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	text, _ := s.SpecText()
	wantReport, wantPortfolio := coldAnswers(t, text)
	query := func() {
		t.Helper()
		res, err := s.EvalPortfolioCtx(context.Background(), sharedPortfolio)
		if err != nil || res.Err != nil {
			t.Fatalf("portfolio: %v / %v", err, res.Err)
		}
		if res.Text != wantPortfolio {
			t.Fatalf("portfolio differs from cold\n--- daemon\n%s\n--- cold\n%s", res.Text, wantPortfolio)
		}
	}
	query()
	query()
	if got := mustReport(t, s).Text; got != wantReport {
		t.Fatalf("report differs from cold\n--- daemon\n%s\n--- cold\n%s", got, wantReport)
	}
	for i := 0; i < 3; i++ {
		query()
	}
	snap := reg.Snapshot()
	for _, phase := range []string{"routesim", "execute"} {
		if n := phaseCount(snap, phase); n != 1 {
			t.Errorf("%s phase recorded %d times for one version, want 1", phase, n)
		}
	}
	if n := snap.Counters["serve.tlp_requests"]; n != 5 {
		t.Errorf("serve.tlp_requests = %d, want 5", n)
	}
}

// apiAnswer is the part of a report or portfolio response the
// concurrency test checks.
type apiAnswer struct {
	Version int64  `json:"version"`
	Report  string `json:"report"`
	Error   string `json:"error"`
}

// TestConcurrentQueriesMatchCold runs reports, portfolio queries, and
// verifying deltas against one daemon at once (run it under -race).
// Every answer must byte-equal the cold answer for the version it cites,
// whichever of the queries on that version's run came first.
func TestConcurrentQueriesMatchCold(t *testing.T) {
	s := serve.NewServer(serve.Config{OverloadFactor: 0.95})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base, id0 := s.SpecText()
	spec0, err := config.ParseSpecString(base)
	if err != nil {
		t.Fatal(err)
	}
	deltas := difftest.GenDeltas(rand.New(rand.NewSource(3)), spec0, 6)

	call := func(method, path string, body any) (apiAnswer, error) {
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, _ := http.NewRequest(method, ts.URL+path, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return apiAnswer{}, err
		}
		defer resp.Body.Close()
		var a apiAnswer
		err = json.NewDecoder(resp.Body).Decode(&a)
		if err == nil && resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return a, err
	}

	var (
		mu      sync.Mutex
		texts   = map[int64]string{id0: base}
		reports []apiAnswer
		queries []apiAnswer
	)
	record := func(list *[]apiAnswer, a apiAnswer) {
		mu.Lock()
		*list = append(*list, a)
		mu.Unlock()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(query bool) {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			select {
			case <-done:
				return
			default:
			}
			var a apiAnswer
			var err error
			if query {
				a, err = call(http.MethodPost, "/v1/tlp", map[string]string{"portfolio": sharedPortfolio})
			} else {
				a, err = call(http.MethodGet, "/v1/report", nil)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if query {
				record(&queries, a)
			} else {
				record(&reports, a)
			}
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go reader(false)
		go reader(true)
	}

	text := base
	for i, d := range deltas {
		next, err := serve.ApplyToText(text, []serve.Delta{d})
		if err != nil {
			t.Fatal(err)
		}
		a, err := call(http.MethodPost, "/v1/delta", map[string]any{"deltas": []serve.Delta{d}, "verify": i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		text = next
		mu.Lock()
		texts[a.Version] = text
		mu.Unlock()
		if i%2 == 0 {
			record(&reports, a)
		}
	}
	close(done)
	wg.Wait()

	type cold struct{ report, portfolio string }
	colds := make(map[int64]cold)
	coldOf := func(v int64) cold {
		c, ok := colds[v]
		if !ok {
			text, known := texts[v]
			if !known {
				t.Fatalf("an answer cites version %d, which no load or delta produced", v)
			}
			c.report, c.portfolio = coldAnswers(t, text)
			colds[v] = c
		}
		return c
	}
	for _, a := range reports {
		if a.Error != "" {
			t.Errorf("report of version %d: %s", a.Version, a.Error)
		} else if a.Report != coldOf(a.Version).report {
			t.Errorf("report of version %d differs from cold", a.Version)
		}
	}
	for _, a := range queries {
		if a.Error != "" {
			t.Errorf("portfolio of version %d: %s", a.Version, a.Error)
		} else if a.Report != coldOf(a.Version).portfolio {
			t.Errorf("portfolio of version %d differs from cold", a.Version)
		}
	}
	if len(queries) == 0 || len(reports) == 0 {
		t.Fatalf("no concurrent answers recorded (%d reports, %d queries)", len(reports), len(queries))
	}
}
