package pipeline

import (
	"fmt"
	"strings"
	"time"

	"eel/internal/telemetry"
)

// Stats summarizes one AnalyzeAll run: where the time went (per-stage
// wall time summed across workers), how much work was done
// (instructions decoded, blocks and edges built), and how the
// memoizing cache behaved.  It is the measurement substrate for the
// repository's performance trajectory, which bench/ records.
type Stats struct {
	// Routines is the number of routines analyzed (including hidden
	// routines discovered during the run); Hidden counts just the
	// latter.  Errors counts routines whose CFG construction failed.
	Routines int
	Hidden   int
	Errors   int

	// Workers is the pool size used; Waves is the number of
	// fan-out rounds (more than one only when analysis discovers
	// hidden routines that then need analyzing themselves).
	Workers int
	Waves   int

	// Wall is the end-to-end elapsed time of the run.  The per-stage
	// durations below are summed across workers, so they can exceed
	// Wall on multi-core machines; their ratios show where the CPU
	// time goes.
	Wall         time.Duration
	CFGTime      time.Duration
	LivenessTime time.Duration
	DomTime      time.Duration
	LoopTime     time.Duration
	HashTime     time.Duration

	// Work volume.
	InstsDecoded int64
	BlocksBuilt  int64
	EdgesBuilt   int64

	// Cache behaviour during this run (zero when no cache was
	// supplied), counted per access against this run's own registry —
	// concurrent runs sharing one cache each see exactly their own
	// traffic.  Evictions counts entries this run pushed out.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// CacheDiskHits counts the subset of CacheHits served by decoding
	// a persisted bundle from the cache's disk backend (rather than
	// from the in-memory tier).
	CacheDiskHits uint64
}

// RoutinesPerSec is the run's analysis throughput.
func (s Stats) RoutinesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Routines) / s.Wall.Seconds()
}

// InstsPerSec is the run's decode throughput.
func (s Stats) InstsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.InstsDecoded) / s.Wall.Seconds()
}

// CacheHitRate is hits/(hits+misses), or 0 when the run had no cache
// traffic.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// String renders the stats in the multi-line form the CLI tools print
// under -stats.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %d routines (%d hidden, %d errors) in %v with %d workers, %d wave(s)\n",
		s.Routines, s.Hidden, s.Errors, s.Wall.Round(time.Microsecond), s.Workers, s.Waves)
	fmt.Fprintf(&b, "  throughput: %.0f routines/s, %.0f insts/s (%d insts, %d blocks, %d edges)\n",
		s.RoutinesPerSec(), s.InstsPerSec(), s.InstsDecoded, s.BlocksBuilt, s.EdgesBuilt)
	fmt.Fprintf(&b, "  stage time (summed over workers): cfg %v, liveness %v, dominators %v, loops %v, hashing %v\n",
		s.CFGTime.Round(time.Microsecond), s.LivenessTime.Round(time.Microsecond),
		s.DomTime.Round(time.Microsecond), s.LoopTime.Round(time.Microsecond),
		s.HashTime.Round(time.Microsecond))
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, "  cache: %d hits (%d from disk), %d misses, %d evictions (%.1f%% hit rate)",
			s.CacheHits, s.CacheDiskHits, s.CacheMisses, s.CacheEvictions, 100*s.CacheHitRate())
	} else {
		fmt.Fprintf(&b, "  cache: disabled")
	}
	return b.String()
}

// collector is one run's private telemetry registry plus direct
// handles to its hot counters.  Scoping the registry per run is what
// makes concurrent AnalyzeAll calls attribute cache hits (and
// everything else) to the right run: workers increment only their
// run's counters, and Stats is a snapshot view of them.  At run end
// the registry's totals are folded into the process-wide registry
// (when one is enabled) under the same "pipeline.*" names.
type collector struct {
	reg *telemetry.Registry

	cfgNS, liveNS, domNS, loopNS, hashNS *telemetry.Counter
	insts, blocks, edges, errs           *telemetry.Counter
	cacheHits, cacheMisses, cacheEvict   *telemetry.Counter
	cacheDiskHits                        *telemetry.Counter
	routineInsts                         *telemetry.Histogram
}

func newCollector() *collector {
	reg := telemetry.New()
	return &collector{
		reg:           reg,
		cfgNS:         reg.Counter("pipeline.cfg_ns"),
		liveNS:        reg.Counter("pipeline.liveness_ns"),
		domNS:         reg.Counter("pipeline.dominators_ns"),
		loopNS:        reg.Counter("pipeline.loops_ns"),
		hashNS:        reg.Counter("pipeline.hash_ns"),
		insts:         reg.Counter("pipeline.insts_decoded"),
		blocks:        reg.Counter("pipeline.blocks_built"),
		edges:         reg.Counter("pipeline.edges_built"),
		errs:          reg.Counter("pipeline.errors"),
		cacheHits:     reg.Counter("pipeline.cache.hits"),
		cacheMisses:   reg.Counter("pipeline.cache.misses"),
		cacheEvict:    reg.Counter("pipeline.cache.evictions"),
		cacheDiskHits: reg.Counter("pipeline.cache.disk_hits"),
		routineInsts:  reg.Histogram("pipeline.routine_insts"),
	}
}

// timed runs f and adds its duration to the given nanosecond counter.
func timed(ns *telemetry.Counter, f func()) {
	t0 := time.Now()
	f()
	ns.Add(uint64(time.Since(t0)))
}

func (c *collector) snapshot(s *Stats) {
	s.CFGTime = time.Duration(c.cfgNS.Value())
	s.LivenessTime = time.Duration(c.liveNS.Value())
	s.DomTime = time.Duration(c.domNS.Value())
	s.LoopTime = time.Duration(c.loopNS.Value())
	s.HashTime = time.Duration(c.hashNS.Value())
	s.InstsDecoded = int64(c.insts.Value())
	s.BlocksBuilt = int64(c.blocks.Value())
	s.EdgesBuilt = int64(c.edges.Value())
	s.Errors = int(c.errs.Value())
	s.CacheHits = c.cacheHits.Value()
	s.CacheMisses = c.cacheMisses.Value()
	s.CacheEvictions = c.cacheEvict.Value()
	s.CacheDiskHits = c.cacheDiskHits.Value()
}
