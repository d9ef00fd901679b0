package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, timed by the benchmark around its own
// call.  Spans of one op share op; a root span has parent -1.
type span struct {
	name   string
	op     int
	track  int
	parent int
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	allocs uint64 // heap allocations during the span, when counted
}

// recorder keeps spans in memory until the run ends.  A nil recorder
// records nothing, so untraced runs pay one branch per call site.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	allocs bool // count allocations (only where work is sequential)
	spans  []span
	ops    int
	mstart []uint64 // Mallocs at each open span's start
}

func newRecorder(countAllocs bool) *recorder {
	return &recorder{epoch: time.Now(), allocs: countAllocs}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// root opens the first span of a new op on the given display track.
func (r *recorder) root(name string, track int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.ops++
	op := r.ops
	r.mu.Unlock()
	return r.open(name, op, track, -1)
}

// child opens a span caused by parent.
func (r *recorder) child(parent int, name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	p := r.spans[parent]
	r.mu.Unlock()
	return r.open(name, p.op, p.track, parent)
}

func (r *recorder) open(name string, op, track, parent int) int {
	var m uint64
	if r.allocs {
		m = mallocs()
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, track: track, parent: parent, start: now})
	r.mstart = append(r.mstart, m)
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	var m uint64
	if r.allocs {
		m = mallocs()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.end = now
	if r.allocs {
		s.allocs = m - r.mstart[id]
	}
}

// selfTimes returns each span's duration minus the part of its
// interval that its children's spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi time.Duration
		for j, v := range ivs {
			if j == 0 || v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStat is one layer's totals over a recorder's spans.
type layerStat struct {
	name        string
	count       int
	total, self time.Duration
	allocs      uint64
	durs        []float64 // ms, per span
}

// layers aggregates the recorded spans by name, in first-seen order.
func (r *recorder) layers() []*layerStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	var out []*layerStat
	by := map[string]*layerStat{}
	for i, s := range r.spans {
		l := by[s.name]
		if l == nil {
			l = &layerStat{name: s.name}
			by[s.name] = l
			out = append(out, l)
		}
		d := s.end - s.start
		l.count++
		l.total += d
		l.self += self[i]
		l.allocs += s.allocs
		l.durs = append(l.durs, float64(d)/1e6)
	}
	return out
}

// writeChrome writes the recorders' spans as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing).  Each recorder becomes
// one process row, each track one thread row.
func writeChrome(w io.Writer, recs map[string]*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	names := make([]string, 0, len(recs))
	for n := range recs {
		names = append(names, n)
	}
	sort.Strings(names)
	for pid, n := range names {
		r := recs[n]
		if r == nil {
			continue
		}
		evs = append(evs, event{Name: "process_name", Ph: "M", PID: pid + 1, Args: map[string]any{"name": n}})
		r.mu.Lock()
		for _, s := range r.spans {
			args := map[string]any{"op": s.op, "parent": s.parent}
			if r.allocs {
				args["allocs"] = s.allocs
			}
			evs = append(evs, event{
				Name: s.name, Ph: "X", PID: pid + 1, TID: s.track,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: args,
			})
		}
		r.mu.Unlock()
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
