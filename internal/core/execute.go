package core

import (
	"sort"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// FlowSTF is the result of symbolic traffic execution for one flow
// (Algorithm 1): the symbolic traffic fraction ω_f on every directed link
// (summed over label stacks), plus the fractions delivered and dropped.
// All MTBDDs map failure scenarios to fractions in [0,1] (within the
// k-failure budget) and are KReduce'd.
type FlowSTF struct {
	Flow topo.Flow
	// Links maps each directed link crossed by the flow to its STF.
	Links map[topo.DirLinkID]*mtbdd.Node
	// Delivered is the fraction of the flow's traffic reaching a router
	// that originates a prefix covering the destination.
	Delivered *mtbdd.Node
	// Dropped is the fraction discarded (no route, null route, broken SR
	// policy, or ingress router down).
	Dropped *mtbdd.Node
	// InFlight is nonzero only if the iteration cap was reached with
	// traffic still circulating (a forwarding loop in some scenario).
	InFlight *mtbdd.Node
	// Iterations is the number of hops executed.
	Iterations int
	// Degraded marks an STF rebuilt by the bounded concrete fallback
	// (rung 3 of the degradation ladder) rather than symbolic execution.
	Degraded bool
}

// inKey identifies a wavefront cell: traffic arriving at a router with a
// given label stack.
type inKey struct {
	router   topo.RouterID
	stackKey string
}

type inVal struct {
	stack stack
	omega *mtbdd.Node
}

// sortedFront returns the wavefront keys in (router, stackKey) order.
// Float MTBDD addition is not associative, so accumulating cells in map
// iteration order would make results vary run to run; a fixed order keeps
// every STF bit-for-bit reproducible.
func sortedFront(front map[inKey]inVal) []inKey {
	keys := make([]inKey, 0, len(front))
	for k := range front {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].router != keys[j].router {
			return keys[i].router < keys[j].router
		}
		return keys[i].stackKey < keys[j].stackKey
	})
	return keys
}

// sortedOut returns a step's output keys in (link, stackKey) order, for
// the same reproducibility reason as sortedFront.
func sortedOut(out map[outKey]stepOut) []outKey {
	keys := make([]outKey, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].link != keys[j].link {
			return keys[i].link < keys[j].link
		}
		return keys[i].stackKey < keys[j].stackKey
	})
	return keys
}

// ExecuteFlow symbolically executes the forwarding of one flow under all
// failure scenarios (Algorithm 1). Iterations propagate a traffic
// wavefront hop by hop; per-link fractions accumulate, so the result is
// the total fraction of the flow's traffic crossing each link.
func (e *Engine) ExecuteFlow(f topo.Flow) *FlowSTF {
	m, fv := e.m, e.fv
	res := &FlowSTF{
		Flow:      f,
		Links:     make(map[topo.DirLinkID]*mtbdd.Node),
		Delivered: m.Zero(),
		Dropped:   m.Zero(),
		InFlight:  m.Zero(),
	}
	class := e.classifier.classOf(f.Dst)

	// The pseudo incoming link l_R of Algorithm 1: 100% of the flow at
	// the ingress router, gated on the ingress being alive. Traffic that
	// cannot even enter a dead ingress is counted as dropped.
	ingressUp := fv.RouterUp(f.Ingress)
	front := map[inKey]inVal{
		{f.Ingress, ""}: {nil, ingressUp},
	}
	res.Dropped = fv.Reduce(m.Not(ingressUp))

	iter := 0
	for len(front) > 0 && iter < e.maxIter {
		iter++
		next := make(map[inKey]inVal)
		for _, k := range sortedFront(front) {
			in := front[k]
			var st *step
			if len(in.stack) == 0 {
				st = e.forwardIp(k.router, class, f.DSCP)
			} else {
				st = e.forwardSr(k.router, class, f.DSCP, in.stack)
			}
			if st.delivered != m.Zero() {
				res.Delivered = fv.ReduceMulAdd(res.Delivered, in.omega, st.delivered)
			}
			if st.dropped != m.Zero() {
				res.Dropped = fv.ReduceMulAdd(res.Dropped, in.omega, st.dropped)
			}
			for _, ok2 := range sortedOut(st.out) {
				o := st.out[ok2]
				t := fv.ReduceMul(in.omega, o.frac)
				if t == m.Zero() {
					continue
				}
				link := ok2.link
				if prev, ok := res.Links[link]; ok {
					res.Links[link] = fv.ReduceAdd(prev, t)
				} else {
					res.Links[link] = t
				}
				to := e.net.Edge(link).To
				nk := inKey{to, ok2.stackKey}
				if prev, ok := next[nk]; ok {
					next[nk] = inVal{o.stack, fv.ReduceAdd(prev.omega, t)}
				} else {
					next[nk] = inVal{o.stack, t}
				}
			}
		}
		front = next
	}
	res.Iterations = iter
	for _, k := range sortedFront(front) {
		res.InFlight = fv.ReduceAdd(res.InFlight, front[k].omega)
	}
	return res
}
