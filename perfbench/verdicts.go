package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
)

// pin is the violation-key set a batch workload must report at its
// default seed and full size: its size and the SHA-256 of the keys
// joined by newlines (see keyDigest).
type pin struct {
	count  int
	digest string
}

func keyDigest(keys []string) string {
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:])
}

// maxReplays bounds how many distinct witness failure sets one run
// replays: a concrete simulation of a WAN workload takes a few hundred
// milliseconds, and the run has a fixed time budget.
const maxReplays = 8

// replayWitnesses re-runs reported witnesses in the concrete simulator,
// an engine independent of the symbolic pipeline, and returns one
// message per violation whose concrete load does not reproduce the
// reported value or does not cross the bound. It replays every violation
// of up to maxReplays distinct failure sets, picked by the seed, so runs
// with different seeds check different witnesses. It also returns how
// many violations it replayed.
func replayWitnesses(spec *config.Spec, rep *yu.Report, seed int64) (bad []string, replayed int) {
	var sets []string
	bySet := make(map[string][]int)
	for i, v := range rep.Violations {
		key := fmt.Sprint(v.FailedLinks, v.FailedRouters)
		if bySet[key] == nil {
			sets = append(sets, key)
		}
		bySet[key] = append(bySet[key], i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	if len(sets) > maxReplays {
		sets = sets[:maxReplays]
	}
	sim := concrete.NewSim(spec.Net, spec.Configs)
	for _, key := range sets {
		first := rep.Violations[bySet[key][0]]
		sc := concrete.NewScenario(spec.Net)
		for _, l := range first.FailedLinks {
			sc.LinkDown[l] = true
		}
		for _, r := range first.FailedRouters {
			sc.RouterDown[r] = true
		}
		res := sim.Simulate(sc, spec.Flows)
		for _, i := range bySet[key] {
			replayed++
			if msg := checkReplay(spec, rep.Violations[i], res); msg != "" {
				bad = append(bad, fmt.Sprintf("violation %d: %s", i, msg))
			}
		}
	}
	return bad, replayed
}

// checkReplay compares one violation with the concrete loads of its
// witness scenario.
func checkReplay(spec *config.Spec, v yu.Violation, res *concrete.ScenarioResult) string {
	var conc float64
	switch v.Kind {
	case "link-load":
		conc = res.Load[v.Link]
	case "delivered":
		for fi, f := range spec.Flows {
			if v.Prefix.Contains(f.Dst) {
				conc += res.Delivered[fi]
			}
		}
	default:
		return fmt.Sprintf("unknown kind %q", v.Kind)
	}
	tol := 1e-6 * math.Max(1, math.Abs(v.Value))
	crosses := (!math.IsInf(v.Max, 1) && conc > v.Max-3*tol) || (v.Min > 0 && conc < v.Min+3*tol)
	if math.Abs(conc-v.Value) > tol || !crosses {
		return fmt.Sprintf("%s (reported %.9g), but a concrete replay of the witness gives %.9g",
			v.Describe(spec.Net), v.Value, conc)
	}
	return ""
}
