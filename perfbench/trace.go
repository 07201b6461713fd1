package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one operation share Op; Parent is the enclosing span's
// ID (0 for an operation's root). Probe spans (Op 0) time a layer
// function on the operation's inputs from outside the operation, for a
// layer the daemon runs where the benchmark cannot put a span; they are
// not part of any operation's time.
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// layerOf maps a span name ("routesim.igp") to its layer ("routesim");
// an operation's root span is the benchmark's own glue.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp opens a new operation's root span and returns its ID.
func (t *tracer) beginOp() (op, root int) {
	t.ops++
	return t.ops, t.begin(t.ops, "op", 0)
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(op int, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Op: op, Name: name, Parent: parent,
		StartNS: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.epoch))
	return time.Duration(s.EndNS - s.StartNS)
}

// child records a span that already ran inside parent for d, ending now:
// used for phases the program reports through its own metrics registry.
func (t *tracer) child(op int, name string, parent int, d time.Duration) {
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Op: op, Name: name, Parent: parent,
		StartNS: now - int64(d), EndNS: now,
	})
}

// opMS is the total duration of op's spans named name.
func (t *tracer) opMS(op int, name string) float64 {
	var ms float64
	for _, s := range t.spans {
		if s.Op == op && s.Name == name {
			ms += s.ms()
		}
	}
	return ms
}

// selfByLayer returns op's time split by layer: each span's duration
// minus its children's. The values sum to the root span's duration.
func (t *tracer) selfByLayer(op int) map[string]float64 {
	self := make(map[int]float64)
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		self[s.ID] += s.ms()
		if s.Parent != 0 {
			self[s.Parent] -= s.ms()
		}
	}
	out := make(map[string]float64)
	for id, ms := range self {
		out[layerOf(t.spans[id-1].Name)] += ms
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
