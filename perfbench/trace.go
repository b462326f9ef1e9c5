package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call. Spans of one unit share its unit id; probe spans carry unit -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Unit   int64  `json:"unit"`
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so that children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id, parent, unit int64, rank int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: unit, Rank: rank, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
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
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
