package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tquad/internal/obs"
)

// span is one timed layer call made by the benchmark.  Times are
// seconds since the tracer started; spans of one op share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// untraced run: every method is a no-op.  Spans are recorded from the
// benchmark's own goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// add records a span whose times were observed elsewhere (scheduler
// events, job timestamps).
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil || end.Before(start) {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// layerSelf sums self time by span name over the given ops, and returns
// each op's root duration and root self time (the part of the op no
// layer span covers).
func (t *tracer) layerSelf(ops map[int]bool) (byName map[string]float64, wall, unattributed []float64) {
	byName = make(map[string]float64)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if !ops[s.Op] {
			continue
		}
		if s.Parent < 0 {
			wall = append(wall, s.End-s.Start)
			unattributed = append(unattributed, self[i])
			continue
		}
		byName[s.Name] += self[i]
	}
	return byName, wall, unattributed
}

// write saves the spans and the run's host facts as one JSON document.
func (t *tracer) write(path string, facts map[string]string) error {
	doc := struct {
		Host  map[string]string `json:"host"`
		Spans []span            `json:"spans"`
	}{facts, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// eventLog is an obs.EventSink that timestamps every scheduler lifecycle
// event on arrival.  Installing it turns on the scheduler's heartbeats,
// so only traced ops use it.
type eventLog struct {
	mu  sync.Mutex
	evs []timedEvent
}

type timedEvent struct {
	at time.Time
	ev obs.Event
}

func (l *eventLog) Publish(ev obs.Event) {
	now := time.Now()
	l.mu.Lock()
	l.evs = append(l.evs, timedEvent{now, ev})
	l.mu.Unlock()
}

// runSpan is one scheduler run as its events saw it.
type runSpan struct {
	key                    string
	queued, started, ended time.Time
}

// runs folds the log into one interval per run key that started and
// ended, in start order.
func (l *eventLog) runs() []runSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	byKey := make(map[string]*runSpan)
	var order []*runSpan
	for _, te := range l.evs {
		r := byKey[te.ev.Key]
		if r == nil {
			r = &runSpan{key: te.ev.Key}
			byKey[te.ev.Key] = r
			order = append(order, r)
		}
		switch te.ev.Type {
		case obs.EventQueued:
			r.queued = te.at
		case obs.EventStarted:
			r.started = te.at
		case obs.EventSucceeded, obs.EventFailed:
			r.ended = te.at
		}
	}
	var out []runSpan
	for _, r := range order {
		if !r.started.IsZero() && !r.ended.IsZero() {
			if r.queued.IsZero() {
				r.queued = r.started
			}
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].started.Before(out[j].started) })
	return out
}

// passGap is how close together batched replay members start: the
// scheduler emits their started events in one loop before the shared
// decode pass, so members starting within it occupy one worker slot.
const passGap = 5 * time.Millisecond

// slot is one worker-slot occupancy of a scheduler op: a recording, or
// one replay pass (a batch of members, or a single replay).
type slot struct {
	record     bool
	start, end time.Time
}

func (s slot) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// slots groups a scheduler op's runs (in start order) into worker-slot
// occupancies.
func slots(runs []runSpan) []slot {
	var out []slot
	pass := -1
	for _, r := range runs {
		if strings.HasPrefix(r.key, "record/") {
			out = append(out, slot{record: true, start: r.started, end: r.ended})
			continue
		}
		if pass >= 0 && r.started.Sub(out[pass].start) <= passGap {
			if r.ended.After(out[pass].end) {
				out[pass].end = r.ended
			}
			continue
		}
		out = append(out, slot{start: r.started, end: r.ended})
		pass = len(out) - 1
	}
	return out
}

// foldRuns derives a scheduler op's wait (queued to started, summed over
// runs), busy (worker-slot seconds) and critical path (the recordings
// plus the longest replay pass that depended on them).
func foldRuns(runs []runSpan) (wait, busy, critical float64) {
	var rec, longest float64
	for _, r := range runs {
		wait += r.started.Sub(r.queued).Seconds()
	}
	for _, s := range slots(runs) {
		busy += s.seconds()
		if s.record {
			rec += s.seconds()
		} else if s.seconds() > longest {
			longest = s.seconds()
		}
	}
	return wait, busy, rec + longest
}
