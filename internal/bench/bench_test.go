package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

func mustSpec(t testing.TB, load func() (*config.Spec, error)) *config.Spec {
	t.Helper()
	spec, err := load()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, map[string]*config.Spec{"motivating": mustSpec(t, paperex.MotivatingSpec)})
	out := buf.String()
	for _, want := range []string{"QARC", "Jingubang", "YU", "faithful on motivating: false"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full ladder")
	}
	var buf bytes.Buffer
	if err := Table3(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, net := range []string{"N0", "N1", "N2", "WAN"} {
		if !strings.Contains(out, net) {
			t.Errorf("Table3 missing %s:\n%s", net, out)
		}
	}
}

// TestFig15Tiny runs the Fig 15/16 machinery at its smallest point to
// cover the harness code path.
func TestFig15Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real verifications")
	}
	var buf bytes.Buffer
	if err := Fig15and16(&buf, Quick, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "YU w/o KREDUCE") || !strings.Contains(out, "QARC") {
		t.Errorf("Fig15 output malformed:\n%s", out)
	}
	// The reduction must show a node-count advantage at every row.
	if !strings.Contains(out, "flows") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		to   bool
		want string
	}{
		{90 * time.Second, false, "1.5m"},
		{1500 * time.Millisecond, false, "1.50s"},
		{250 * time.Microsecond, false, "0.2ms"},
		{time.Minute, true, "> 1m0s (timeout)"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d, c.to); got != c.want {
			t.Errorf("fmtDur(%v,%v) = %q, want %q", c.d, c.to, got, c.want)
		}
	}
}

func TestWANCasesLadder(t *testing.T) {
	quick := wanCases(Quick)
	full := wanCases(Full)
	if len(quick) != 4 || len(full) != 4 {
		t.Fatal("expected the N0..WAN ladder")
	}
	if full[3].ws.Routers != 1000 || full[3].ws.Links != 4000 {
		t.Errorf("full WAN = %+v, want Table 3 values", full[3].ws)
	}
	for i := 1; i < 4; i++ {
		if quick[i].ws.Routers < quick[i-1].ws.Routers {
			t.Error("ladder must be increasing")
		}
	}
	_ = topo.FailLinks
}
