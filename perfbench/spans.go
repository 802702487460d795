package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer holds the traced run's spans in memory; write dumps them as JSONL
// once the run is over, so no file I/O lands inside a timed section. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one span: a layer boundary the benchmark crossed. Parent is
// the enclosing span's ID (0 for a root) and Req the request it served
// (-1 when it served none).
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartUs: us(now), EndUs: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].EndUs = us(now)
	t.mu.Unlock()
}

// add files a span whose times were taken elsewhere.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartUs: us(start.Sub(t.t0)), EndUs: us(end.Sub(t.t0))})
	t.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

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
