package yu

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
)

// TestPreparedWaitBoundedByContext: a query waiting for a busy handle
// gives up when its context does — here a 20 ms deadline while another
// query holds the slot — with ErrDeadline and an all-unchecked answer,
// and the handle serves queries normally once the slot is free.
func TestPreparedWaitBoundedByContext(t *testing.T) {
	n, err := LoadFile("testdata/motivating.yu")
	if err != nil {
		t.Fatal(err)
	}
	props, err := config.ParsePortfolioString("tlp util 0.7\n", n.Topology())
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.Prepare(VerifyOptions{Workers: 1})
	if err != nil || p.Err() != nil {
		t.Fatalf("prepare: %v / %v", err, p.Err())
	}

	p.slot <- struct{}{} // a long query holds the handle
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := p.Portfolio(ctx, props)
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("Portfolio waited %v for a busy handle past its 20 ms deadline", waited)
	}
	if !errors.Is(err, ErrDeadline) || res == nil || res.Stats.Unchecked != len(props) {
		t.Fatalf("Portfolio on a busy handle = %v, %+v; want ErrDeadline with every property unchecked", err, res)
	}
	rep, err := p.Report(ctx, n.Spec().Props, n.Spec().Delivered, 0.9)
	if !errors.Is(err, ErrDeadline) || !rep.Incomplete || len(rep.Unchecked) == 0 {
		t.Fatalf("Report on a busy handle = %v, incomplete %v; want ErrDeadline with links unchecked", err, rep.Incomplete)
	}

	<-p.slot // the long query finishes
	if res, err := p.Portfolio(context.Background(), props); err != nil || res.Incomplete {
		t.Errorf("Portfolio after the slot is free: err %v, incomplete %v", err, res.Incomplete)
	}
}
