// Tests for POST /v1/tlp: portfolio evaluation must answer from warm
// state (every clean class a cache hit, none re-executed), report the
// pinned version, and map malformed portfolios to 422 / missing spec to
// 409 without ever panicking.
package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/serve"
)

type tlpResp struct {
	Version     int64  `json:"version"`
	Holds       bool   `json:"holds"`
	Report      string `json:"report"`
	Properties  int    `json:"properties"`
	Violations  int    `json:"violations"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

func postTLP(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Post(url+"/v1/tlp", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	return res, data
}

// TestTLPWarm: after one report, a portfolio evaluation on the same
// version must run on that version's symbolic run: no STF-cache lookup
// and no route simulation of its own, and the cache statistics it
// reports are the run's. Its verdicts must agree with the known Figure 1
// loads.
func TestTLPWarm(t *testing.T) {
	s := serve.NewServer(serve.Config{K: 1})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	first := mustReport(t, s)
	before := s.Metrics().Snapshot()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, body := postTLP(t, ts.URL, `{"portfolio":
		"tlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\ntlp link D-E max 105 if-failed B-D"}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var r tlpResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("body: %v\n%s", err, body)
	}
	if r.Error != "" {
		t.Fatalf("tlp error: %s", r.Error)
	}
	if r.Version != first.Version {
		t.Errorf("tlp cites version %d, report pinned %d", r.Version, first.Version)
	}
	snap := s.Metrics().Snapshot()
	for _, name := range []string{"serve.class_cache_hits", "serve.class_cache_misses"} {
		if d := snap.Counters[name] - before.Counters[name]; d != 0 {
			t.Errorf("%s grew by %d during the TLP request, want 0", name, d)
		}
	}
	if d := phaseCount(snap, "routesim") - phaseCount(before, "routesim"); d != 0 {
		t.Errorf("the TLP request ran route simulation %d time(s), want 0", d)
	}
	if r.CacheHits != first.Stats.CacheHits || r.CacheMisses != first.Stats.CacheMisses {
		t.Errorf("hits/misses = %d/%d, want the run's %d/%d",
			r.CacheHits, r.CacheMisses, first.Stats.CacheHits, first.Stats.CacheMisses)
	}
	// k=1: C->E hits 100 when B-D fails, delivery stays >= 80 (one E-F
	// link survives), and the conditional bound 105 can never be hit.
	if r.Properties != 3 || r.Violations != 1 || r.Holds {
		t.Errorf("properties/violations/holds = %d/%d/%v, want 3/1/false",
			r.Properties, r.Violations, r.Holds)
	}
	if !strings.Contains(r.Report, "group when") {
		t.Errorf("report lacks a violation group:\n%s", r.Report)
	}

	if snap.Counters["serve.tlp_requests"] != 1 {
		t.Errorf("serve.tlp_requests = %d, want 1", snap.Counters["serve.tlp_requests"])
	}
	if snap.Counters["tlp.properties"] != 3 {
		t.Errorf("tlp.properties = %d, want 3", snap.Counters["tlp.properties"])
	}
}

// TestTLPEmptyBody: an empty request evaluates the spec's own portfolio
// section — none here, so the answer is a trivially holding portfolio.
func TestTLPEmptyBody(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, body := postTLP(t, ts.URL, "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var r tlpResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Holds || r.Properties != 0 {
		t.Errorf("empty portfolio: holds=%v properties=%d, want true/0", r.Holds, r.Properties)
	}
}

// TestTLPErrors: malformed portfolios answer 422, a daemon without a
// spec answers 409, and GET answers 405. None of these count as served
// evaluations.
func TestTLPErrors(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown-link": `{"portfolio":"tlp link X-Y max 1"}`,
		"bad-kind":     `{"portfolio":"tlp frobnicate 1"}`,
		"min-gt-max":   `{"portfolio":"tlp link C-E min 5 max 1"}`,
		"bad-number":   `{"portfolio":"tlp link C-E max lots"}`,
		"dir-in-link":  `{"portfolio":"tlp link C->E max 1"}`,
	} {
		res, data := postTLP(t, ts.URL, body)
		if res.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (%s)", name, res.StatusCode, data)
		}
	}

	res, err := http.Get(ts.URL + "/v1/tlp")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", res.StatusCode)
	}

	if n := s.Metrics().Snapshot().Counters["serve.tlp_requests"]; n != 0 {
		t.Errorf("serve.tlp_requests = %d after only failed requests, want 0", n)
	}

	empty := serve.NewServer(serve.Config{})
	ts2 := httptest.NewServer(empty.Handler())
	defer ts2.Close()
	res2, _ := postTLP(t, ts2.URL, `{"portfolio":"tlp util 0.9"}`)
	if res2.StatusCode != http.StatusConflict {
		t.Errorf("no spec: status %d, want 409", res2.StatusCode)
	}
}

// phaseCount is how many spans completed under the named phase.
func phaseCount(s *obs.Snapshot, path string) int64 {
	for _, p := range s.Phases {
		if p.Path == path {
			return p.Count
		}
	}
	return 0
}
