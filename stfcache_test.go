package yu_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// memCache is a minimal in-memory STFCache for runs over one spec: it
// keys classes by their representative's ingress, destination and DSCP
// and replays stored STFs by snapshot, the way the daemon's warm cache
// does.
type memCache struct {
	entries               map[string]memEntry
	lookups, hits, stores int
}

type memEntry struct {
	snap *mtbdd.Snapshot
	// roots indexes the snapshot: delivered, dropped, in-flight, then
	// one entry per link of links.
	roots      []uint32
	links      []topo.DirLinkID
	iterations int
}

func memKey(f topo.Flow) string {
	return fmt.Sprintf("%d|%s|%d", f.Ingress, f.Dst, f.DSCP)
}

func (c *memCache) Lookup(e *yu.ExecEngine, rep topo.Flow) (*yu.FlowSTF, bool) {
	c.lookups++
	ent, ok := c.entries[memKey(rep)]
	if !ok {
		return nil, false
	}
	c.hits++
	table := e.Manager().ImportSnapshot(ent.snap)
	stf := &yu.FlowSTF{
		Flow:       rep,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(ent.links)),
		Delivered:  table[ent.roots[0]],
		Dropped:    table[ent.roots[1]],
		InFlight:   table[ent.roots[2]],
		Iterations: ent.iterations,
	}
	for i, l := range ent.links {
		stf.Links[l] = table[ent.roots[3+i]]
	}
	return stf, true
}

func (c *memCache) Store(e *yu.ExecEngine, rep topo.Flow, stf *yu.FlowSTF) {
	c.stores++
	links := make([]topo.DirLinkID, 0, len(stf.Links))
	for l := range stf.Links {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	nodes := []*mtbdd.Node{stf.Delivered, stf.Dropped, stf.InFlight}
	for _, l := range links {
		nodes = append(nodes, stf.Links[l])
	}
	snap := mtbdd.NewSnapshot(nodes)
	roots := make([]uint32, len(nodes))
	for i, n := range nodes {
		roots[i], _ = snap.Index(n)
	}
	c.entries[memKey(rep)] = memEntry{snap: snap, roots: roots, links: links, iterations: stf.Iterations}
}

// TestSTFCacheWithCheckWorkers: the STF cache serves runs with a
// concurrent check pool. Two Verify runs at Workers: 2 share one cache;
// the first stores every executed class, every lookup of the second is a
// hit, and the second run's canonical report equals the first's byte for
// byte.
func TestSTFCacheWithCheckWorkers(t *testing.T) {
	for _, file := range []string{"motivating.yu", "misconfig.yu", "sranycast.yu"} {
		n, err := yu.LoadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		cache := &memCache{entries: make(map[string]memEntry)}
		opts := yu.VerifyOptions{OverloadFactor: 0.95, Workers: 2, STFCache: cache}
		first, err := n.Verify(opts)
		if err != nil {
			t.Fatalf("%s: first run: %v", file, err)
		}
		if cache.hits != 0 || cache.stores != first.FlowsExecuted {
			t.Fatalf("%s: first run: %d hits, %d stores for %d executed classes",
				file, cache.hits, cache.stores, first.FlowsExecuted)
		}
		cache.lookups, cache.hits = 0, 0
		second, err := n.Verify(opts)
		if err != nil {
			t.Fatalf("%s: second run: %v", file, err)
		}
		if cache.lookups != second.FlowsExecuted || cache.hits != cache.lookups {
			t.Fatalf("%s: second run: %d of %d lookups hit, %d classes executed",
				file, cache.hits, cache.lookups, second.FlowsExecuted)
		}
		want, got := canon.FormatReport(n.Topology(), first), canon.FormatReport(n.Topology(), second)
		if got != want {
			t.Fatalf("%s: cached run's report differs\n--- first ---\n%s--- second ---\n%s", file, want, got)
		}
	}
}
