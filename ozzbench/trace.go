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

// span is one traced call into a layer. Spans stay in memory and are
// written out when the run ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Unit   int64  `json:"unit"` // campaign step index or lease ID
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// OffPath marks spans that run concurrently with the traced thread
	// of work (worker heartbeats), so they are kept out of self-time
	// accounting.
	OffPath bool `json:"off_path,omitempty"`
}

// tracer records spans. While off, begin returns 0 and nothing is
// recorded, so the same driver code measures the untraced baseline that
// the tracing overhead is taken against.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    atomic.Bool // read by fleet RPC goroutines, e.g. a late heartbeat
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (0 while tracing is off).
func (t *tracer) begin(name, layer string, parent, unit int64) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Unit: unit, Start: start})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// offPath marks a span as running beside the traced thread of work.
func (t *tracer) offPath(id int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].OffPath = true
	t.mu.Unlock()
}

// mark returns the current span count; spans recorded after it form one
// traced phase for account.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of the named spans since mark, in ms.
func (t *tracer) durations(from int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes does the self-time accounting of the spans recorded since
// mark: a span's self time is its duration minus the part of it its
// children cover. It returns the self time per layer and the total
// duration of the root spans, both in ns. Off-path spans are skipped.
func (t *tracer) selfTimes(from int) (map[string]int64, int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[from:]...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if !s.OffPath && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	var roots int64
	for _, s := range spans {
		if s.OffPath {
			continue
		}
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self, roots
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// dump writes every span as one JSON line and returns the file's path.
func (t *tracer) dump(outDir, workload string, seed int64) (string, error) {
	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// setShares reports each layer's self-time share of the traced wall time
// and the residue: the share of wall time left once every layer's self
// time is taken off (driver code between spans, and any part of a child
// span sticking out of its parent).
func (b *bench) setShares(self map[string]int64, roots, wall int64) {
	var sum int64
	for _, layer := range []string{"core", "engine", "hints", "repair", "dist"} {
		b.set(layer+".self_share", ratio(float64(self[layer]), float64(wall)))
		sum += self[layer]
	}
	b.set("trace.residue_share", ratio(float64(wall-sum), float64(wall)))
	logf("trace: wall %.3fs, root spans %.3fs, layer self times %.3fs, residue %.2f%%",
		float64(wall)/1e9, float64(roots)/1e9, float64(sum)/1e9, 100*ratio(float64(wall-sum), float64(wall)))
}
