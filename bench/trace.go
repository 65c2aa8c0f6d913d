package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Start and End are
// nanoseconds since the tracer was made; Parent is the ID of the span
// that caused it (0 for a root). Spans of one run share Run.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// maxSpans bounds the in-memory trace; boundaries hotter than that are
// counted at the boundary and sampled (see decor.go), never spanned
// one by one.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer is the untraced run: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	run     string
	spans   []span
	dropped int64
}

func newTracer(run string) *tracer {
	return &tracer{t0: time.Now(), run: run, spans: make([]span, 0, 4096)}
}

// open starts a span and returns its ID (0 when untraced or full).
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Run: t.run})
	return id
}

// close ends a span opened by open.
func (t *tracer) close(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller already measured.
func (t *tracer) add(name string, parent int32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds(), Run: t.run})
}

// selfTimes returns, per span name, total duration minus the part
// covered by child spans — the layer's own time.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End > s.Start && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			// Children on other goroutines may overlap; a layer
			// cannot own negative time.
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// duration returns a closed span's length.
func (t *tracer) duration(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].End - t.spans[id-1].Start)
}

// coverage is the share of wall that the layers' own (self) times
// account for: every span except the run and phase spans, which only
// group. The remainder is time the benchmark spent between layer calls
// — building inputs, reading estimates.
func (t *tracer) coverage(wall time.Duration) float64 {
	if t == nil || wall <= 0 {
		return 0
	}
	var sum time.Duration
	for name, d := range t.selfTimes() {
		if name != "run" && !strings.HasPrefix(name, "phase.") {
			sum += d
		}
	}
	return float64(sum.Nanoseconds()) / float64(wall.Nanoseconds())
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	doc := struct {
		Run     string `json:"run"`
		Dropped int64  `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{t.run, t.dropped, t.spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timerCost is what one time.Now/time.Since pair adds to a sampled
// interval; sampled per-call timings subtract it.
var timerCost = func() time.Duration {
	const n = 20000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return time.Since(start) / n
}()
