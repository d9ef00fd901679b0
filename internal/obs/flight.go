package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a flight-recorder event.  Kinds are small and
// closed on purpose: the recorder is for the handful of rare, notable
// transitions that explain a latency spike or a wrong answer after
// the fact, not for general logging.
type EventKind uint8

const (
	EvNone            EventKind = iota
	EvRoutineDeopt              // routine-tier program hit a stale generation; A=entry PC, B=generation
	EvInvalidate                // write watch invalidated translated code; A=store addr, B=new generation
	EvTierPromote               // routine entry crossed the heat threshold; A=entry PC, B=enter count
	EvRoutineInstall            // compiled routine program installed; A=entry PC, B=program length
	EvCompileStall              // routine compile queue full, promotion dropped; A=entry PC, B=queue cap
	EvAdmissionReject           // eeld admission rejected a request; A=HTTP status, B=queue depth
	EvCacheCorrupt              // DiskStore dropped a corrupt entry; A=routine start PC, B=content hash
)

var kindNames = [...]string{
	EvNone:            "none",
	EvRoutineDeopt:    "routine-deopt",
	EvInvalidate:      "invalidate",
	EvTierPromote:     "tier-promote",
	EvRoutineInstall:  "routine-install",
	EvCompileStall:    "compile-stall",
	EvAdmissionReject: "admission-reject",
	EvCacheCorrupt:    "cache-corrupt",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one flight-recorder entry.  All fields are fixed-size so
// recording never allocates; A and B are kind-specific details (see
// the EventKind comments).
type Event struct {
	TS   int64 // nanoseconds since the Unix epoch
	Seq  uint64
	Kind EventKind
	A, B uint64
}

const (
	flightShards       = 8
	defaultFlightSize  = 4096
	minPerShardEntries = 8
)

// flightShard is one independently-locked ring.  Padding keeps the
// shards on separate cache lines, same trick as telemetry.Counter.
type flightShard struct {
	mu   sync.Mutex
	pos  int
	full bool
	buf  []Event
	_    [64 - 8]byte
}

// Flight is a fixed-size lock-sharded ring buffer of recent events.
// Recording takes one shard mutex and writes into a preallocated
// slot; old events are overwritten, never reallocated.  A nil *Flight
// drops events with a single branch.
type Flight struct {
	shards [flightShards]flightShard
	seq    atomic.Uint64
}

// NewFlight returns a recorder holding about size recent events
// (rounded up so every shard gets at least a few slots).  size <= 0
// selects the default of 4096.
func NewFlight(size int) *Flight {
	if size <= 0 {
		size = defaultFlightSize
	}
	per := size / flightShards
	if per < minPerShardEntries {
		per = minPerShardEntries
	}
	f := &Flight{}
	for i := range f.shards {
		f.shards[i].buf = make([]Event, per)
	}
	return f
}

// Record appends an event. Safe for concurrent use; zero allocations.
func (f *Flight) Record(kind EventKind, a, b uint64) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1)
	sh := &f.shards[rand.Uint32()%flightShards]
	sh.mu.Lock()
	sh.buf[sh.pos] = Event{TS: time.Now().UnixNano(), Seq: seq, Kind: kind, A: a, B: b}
	sh.pos++
	if sh.pos == len(sh.buf) {
		sh.pos = 0
		sh.full = true
	}
	sh.mu.Unlock()
}

// Events returns a snapshot of the retained events in recording
// order (by sequence number).
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		if sh.full {
			out = append(out, sh.buf[sh.pos:]...)
			out = append(out, sh.buf[:sh.pos]...)
		} else {
			out = append(out, sh.buf[:sh.pos]...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// eventJSON is the wire shape served by /debug/flight: stable field
// names, hex details (they are almost always PCs or hashes).
type eventJSON struct {
	TS   int64  `json:"ts_ns"`
	Kind string `json:"kind"`
	A    string `json:"a"`
	B    string `json:"b"`
}

// WriteJSON writes the retained events as a JSON array, oldest first.
func (f *Flight) WriteJSON(w io.Writer) error {
	evs := f.Events()
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{TS: e.TS, Kind: e.Kind.String(), A: fmt.Sprintf("%#x", e.A), B: fmt.Sprintf("%#x", e.B)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Dump writes a human-readable flight record, oldest first — the
// SIGQUIT format.  Timestamps are wall-clock with nanoseconds so
// dumps from different processes line up.
func (f *Flight) Dump(w io.Writer) {
	evs := f.Events()
	fmt.Fprintf(w, "flight recorder dump: %d events\n", len(evs))
	for _, e := range evs {
		t := time.Unix(0, e.TS).UTC().Format("15:04:05.000000000")
		fmt.Fprintf(w, "  %s %-16s a=%#x b=%#x\n", t, e.Kind.String(), e.A, e.B)
	}
}

// active is the process-wide recorder, nil until EnableFlight.  The
// instrumented code paths in sim/pipeline/eeld call the package-level
// Record, which is a nil-check and a return while disabled.
var active atomic.Pointer[Flight]

// EnableFlight installs a fresh process-wide recorder of the given
// size (<= 0 for the default) and returns it.
func EnableFlight(size int) *Flight {
	f := NewFlight(size)
	active.Store(f)
	return f
}

// DisableFlight removes the process-wide recorder; subsequent Record
// calls become no-ops.
func DisableFlight() { active.Store(nil) }

// ActiveFlight returns the process-wide recorder, or nil when
// disabled.
func ActiveFlight() *Flight { return active.Load() }

// Record appends an event to the process-wide recorder, if any.
func Record(kind EventKind, a, b uint64) { active.Load().Record(kind, a, b) }
