// POST /v1/tlp: portfolio evaluation against the daemon's warm state.
// The request pins the current version and evaluates an arbitrary TLP
// portfolio with the batch engine on that version's single symbolic run
// — the same route simulation and execution its report is checked on —
// so a query costs only its checks. The cache_hits/cache_misses of the
// answer are those of the version's run.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/tlp"
)

// tlpRequest is the POST /v1/tlp body.
type tlpRequest struct {
	// Portfolio is portfolio text (`tlp` lines, see config.ParsePortfolio)
	// resolved against the current version's network. Empty evaluates the
	// spec's own `tlp` section.
	Portfolio string `json:"portfolio,omitempty"`
}

// tlpResponse is the JSON rendering of a portfolio evaluation.
type tlpResponse struct {
	Version     int64  `json:"version"`
	Holds       bool   `json:"holds"`
	Report      string `json:"report"`
	Properties  int    `json:"properties"`
	Violations  int    `json:"violations"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

// TLPResult is the outcome of one portfolio evaluation against a pinned
// version.
type TLPResult struct {
	Version int64
	Result  *yu.TLPResult
	// Text is the canonical rendering (canon.FormatPortfolio).
	Text  string
	Stats RunStats
	Err   error
}

// EvalPortfolioCtx evaluates portfolio text against the current version
// on that version's one symbolic run: it waits for the run (shared with
// the version's report) until ctx expires, then compiles and evaluates
// the portfolio on it, with no route simulation or cache lookups of its
// own. An empty text evaluates the spec's own portfolio section. Parse
// and compile errors, and an expired wait, are returned as the error. A
// run that failed or was cut short, or an evaluation cut short by ctx,
// yields a partial result whose undecided properties are unchecked,
// with the cause in TLPResult.Err.
func (s *Server) EvalPortfolioCtx(ctx context.Context, portfolioText string) (TLPResult, error) {
	v := s.cur.Load()
	if v == nil {
		return TLPResult{}, fmt.Errorf("serve: no specification loaded")
	}
	props := v.spec.Portfolio
	if portfolioText != "" {
		var err error
		props, err = config.ParsePortfolioString(portfolioText, v.spec.Net)
		if err != nil {
			return TLPResult{}, fmt.Errorf("portfolio: %w", err)
		}
	}
	if err := v.prep.wait(ctx, v.prepare); err != nil {
		s.reg.Counter("serve.timeouts").Inc()
		return TLPResult{}, fmt.Errorf("serve: waiting for verification of version %d: %w", v.id, err)
	}
	out := TLPResult{Version: v.id, Stats: v.stats, Err: v.runErr}
	if v.run == nil {
		out.Result = tlp.AllUnchecked(props)
	} else {
		sp := s.reg.Span("tlp")
		defer sp.End()
		ctx, cancel := s.verifyCtx(ctx)
		defer cancel()
		res, err := v.run.Portfolio(ctx, props)
		if res == nil {
			return TLPResult{}, err
		}
		out.Result, out.Err = res, err
	}
	s.reg.Counter("serve.tlp_requests").Inc()
	out.Text = canon.FormatPortfolio(v.spec.Net, out.Result)
	return out, nil
}

func (s *Server) handleTLP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req tlpRequest
	if !s.readBody(w, r, &req) {
		return
	}
	res, err := s.EvalPortfolioCtx(r.Context(), req.Portfolio)
	if err != nil {
		switch {
		case s.cur.Load() == nil:
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			writeError(w, http.StatusGatewayTimeout, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	out := tlpResponse{
		Version:     res.Version,
		Holds:       res.Result.Holds,
		Report:      res.Text,
		Properties:  res.Result.Stats.Properties,
		Violations:  res.Result.Stats.Violations,
		CacheHits:   res.Stats.CacheHits,
		CacheMisses: res.Stats.CacheMisses,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}
