package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Parent indexes the
// span that caused it (noSpan for none); Op identifies the benchmark
// operation (a forwarding slice or a control step) it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

const (
	noSpan   = int32(-1)
	maxSpans = 1 << 20 // bounds the in-memory span log (~40 MiB)
)

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing, which is how the untraced run and the
// untraced rounds of a traced run measure.
type tracer struct {
	mu      sync.Mutex
	on      atomic.Bool
	t0      time.Time
	spans   []span
	dropped int
	// epoch is the span of the control step in flight; spans taken inside
	// the program's own goroutines (agent installs, connection writes)
	// hang under it.
	epoch atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.epoch.Store(noSpan)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its id, or noSpan when not tracing.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.active() {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span:
// its duration minus the part of it that its children cover (children of
// one parent may overlap, as fabric members work in parallel).
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != noSpan && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coverage(kids[int32(i)], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// coverage is the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the span log as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\": %d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
