package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Parent links a span to the span that
// caused it (0: none); spans of one request share the client span as
// their root.
type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the recorder's base time
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID hands out a span id (0 on a nil recorder).
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a pre-assigned id.
func (r *recorder) add(id, parent int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{id: id, parent: parent, name: name, start: start.Sub(r.base), end: end.Sub(r.base)}
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// spans returns a copy of everything recorded so far.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once, and a child sticking out of its parent counts only
// inside the parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// durations collects the durations of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// quantile returns the q-quantile of xs (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
