package core

import (
	"strconv"
	"time"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
)

// This file is the bridge between the MTBDD layer and the obs registry:
// obs is a leaf package (it must not import mtbdd), so core converts
// mtbdd.Stats into the plain obs.ManagerStats record.
//
// Instrumentation placement follows the overhead budget of DESIGN.md
// §11: no time.Now() ever runs inside ExecuteFlow's wavefront loop. The
// KREDUCE timer covers only the per-link aggregation loops (link and
// delivered loads, the pruned checks, and their shard mirrors), where one
// clock read per equivalence class is noise; KREDUCE effort during
// symbolic execution is reported through the manager's cumulative
// counters instead.

// ManagerObsStats converts one manager's stats snapshot into the obs
// record under the given name ("primary", "exec-shard.0", ...).
func ManagerObsStats(name string, m *mtbdd.Manager) obs.ManagerStats {
	st := m.Stats()
	return obs.ManagerStats{
		Name:         name,
		Created:      int(st.Created),
		Live:         st.Live,
		PeakLive:     st.PeakUnique,
		GCRuns:       st.GCRuns,
		KReduceCalls: st.KReduceCalls,
		FusionCuts:   st.FusionCuts,
		MaxProbe:     st.MaxProbe,
		Caches: map[string]obs.CacheCounters{
			"apply":   {Hits: st.Apply.Hits, Misses: st.Apply.Misses},
			"neg":     {Hits: st.Neg.Hits, Misses: st.Neg.Misses},
			"kreduce": {Hits: st.KReduce.Hits, Misses: st.KReduce.Misses},
			"range":   {Hits: st.Range.Hits, Misses: st.Range.Misses},
			"import":  {Hits: st.Import.Hits, Misses: st.Import.Misses},
			"fused":   {Hits: st.Fused.Hits, Misses: st.Fused.Misses},
		},
	}
}

// RecordManager snapshots a manager's stats into the registry. A nil
// registry records nothing.
func RecordManager(reg *obs.Registry, name string, m *mtbdd.Manager) {
	if reg == nil {
		return
	}
	reg.RecordManager(ManagerObsStats(name, m))
}

// RecordManagerSince records what m did since *since (the zero value for
// a fresh manager) and advances *since: a manager that answers several
// queries is recorded once per query, each record counting only that
// query's work. Live, peak, and probe figures stay absolute.
func RecordManagerSince(reg *obs.Registry, name string, m *mtbdd.Manager, since *obs.ManagerStats) {
	if reg == nil {
		return
	}
	cur := ManagerObsStats(name, m)
	d := cur
	d.Created -= since.Created
	d.GCRuns -= since.GCRuns
	d.KReduceCalls -= since.KReduceCalls
	d.FusionCuts -= since.FusionCuts
	d.Caches = make(map[string]obs.CacheCounters, len(cur.Caches))
	for k, c := range cur.Caches {
		prev := since.Caches[k]
		d.Caches[k] = obs.CacheCounters{Hits: c.Hits - prev.Hits, Misses: c.Misses - prev.Misses}
	}
	reg.RecordManager(d)
	*since = cur
}

// workerCounter names a per-worker counter: "worker.3.flows_executed".
func workerCounter(w int, name string) string {
	return "worker." + strconv.Itoa(w) + "." + name
}

// mulAddTimed is the load-aggregation step Reduce(acc + vol*w), computed
// through the fused multiply-accumulate kernel, with an optional timer.
// The timer keeps its historical "check/kreduce" identity: it measures
// the reduction work of aggregation, which the fused kernel now performs
// inline. The nil check keeps the uninstrumented path free of clock reads.
func mulAddTimed(t *obs.Timer, fv *routesim.FailVars, acc *mtbdd.Node, vol float64, w *mtbdd.Node) *mtbdd.Node {
	if t == nil {
		return fv.ReduceMulAdd(acc, fv.M.Const(vol), w)
	}
	start := time.Now()
	r := fv.ReduceMulAdd(acc, fv.M.Const(vol), w)
	t.Add(time.Since(start))
	return r
}
