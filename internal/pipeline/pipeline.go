// Package pipeline analyzes a whole executable concurrently.  EEL's
// per-routine analyses — CFG construction with indirect-jump slicing
// (§3.3), liveness (§3.5), dominators, natural loops — are
// independent across routines, so a bounded worker pool fans routines
// out and collects one immutable RoutineAnalysis bundle per routine,
// in routine order, making the result bit-identical to a sequential
// walk regardless of worker count.
//
// Analysis can discover new routines (the §3.1 stage-4 hidden-routine
// split of unreachable tails); the pipeline fans out each wave of
// core.Executable.Waves, the library's one walk, so hidden routines
// are analyzed in the wave after their discovery.
//
// An optional content-addressed Cache memoizes bundles across runs
// and executables: a routine whose machine words (and anything its
// analysis can observe) are unchanged is a map hit instead of a
// recompute, which makes re-edit workflows and repeated corpus runs
// cheap.  A Stats block (per-stage times, throughput, cache hit rate)
// comes back with every run.
package pipeline

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/telemetry"
)

// Options configures AnalyzeAll.  The zero value asks for everything:
// GOMAXPROCS workers, liveness, dominators, and loops, with no cache.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes routine analyses across runs.
	Cache *Cache
	// NoLiveness, NoDominators, and NoLoops skip the corresponding
	// dataflow stage (the CFG is always built).  Skipping loops
	// implies nothing about dominators; each flag is independent,
	// except that loops need dominators and compute them on demand.
	NoLiveness   bool
	NoDominators bool
	NoLoops      bool

	// Telemetry, when non-nil, receives this run's counters (under
	// "pipeline.*" names) merged in at completion.  Counters are
	// accumulated in a private per-run registry first, so concurrent
	// AnalyzeAll runs never mix their numbers.  Nil defaults to the
	// process-wide telemetry.Default() registry, which is itself nil
	// (a no-op sink) unless telemetry was enabled.
	Telemetry *telemetry.Registry
	// Tracer receives structured spans: one per run, one per wave,
	// and one per routine analysis (on the analyzing worker's track).
	// Nil defaults to telemetry.ActiveTracer(), which is nil — and
	// free — unless tracing was enabled.
	Tracer *telemetry.Tracer
	// TraceTag, when non-empty, is attached as the "trace" argument on
	// every span this run emits, tying the run's waves and per-routine
	// analyses to the distributed trace of the request that triggered
	// them (eeld threads its X-Eel-Trace ID through here).
	TraceTag string
}

// RoutineAnalysis is one routine's immutable analysis bundle.  When
// it came from a cache shared with another executable, Graph and the
// dataflow results are shared objects: treat them as read-only.
type RoutineAnalysis struct {
	Routine *core.Routine
	// Graph is the normalized CFG (nil when Err is set).
	Graph *cfg.Graph
	// Liveness, IDom, and Loops are nil when the corresponding
	// Options flag disabled them (or Err is set).
	Liveness *dataflow.Liveness
	IDom     *dataflow.DomTree
	Loops    []*dataflow.Loop
	// Err records a CFG-construction failure; the pipeline keeps
	// going so one bad routine doesn't hide the rest.
	Err error
	// FromCache reports that this bundle was a cache hit; FromDisk
	// that the hit was served by the persistent tier (and decoded),
	// not the in-memory one.
	FromCache bool
	FromDisk  bool

	// recs are what this analysis adds to the run's disk write: the
	// bundle it computed, or the disk hit it used, which the write
	// copies forward to the newest segment.
	recs []Record
}

// IndirectJumps is a convenience accessor (nil-safe on Err bundles).
func (a *RoutineAnalysis) IndirectJumps() []*cfg.IndirectJump {
	if a.Graph == nil {
		return nil
	}
	return a.Graph.IndirectJumps
}

// Result is a whole-executable analysis.
type Result struct {
	Exec *core.Executable
	// Analyses holds one bundle per routine — including hidden
	// routines discovered during this run — sorted by routine start
	// address (the executable's routine order).
	Analyses []*RoutineAnalysis
	Stats    Stats
}

// AnalyzeAll analyzes every routine of e concurrently and returns the
// bundles in routine order.  The result is deterministic: any worker
// count produces the same analyses in the same order as a sequential
// walk.  e's routine list may grow during the run (hidden-routine
// discovery); the returned analyses cover the final list.
func AnalyzeAll(e *core.Executable, opts Options) (*Result, error) {
	if e == nil {
		return nil, fmt.Errorf("pipeline: nil executable")
	}
	if e.File == nil || e.File.Text() == nil {
		return nil, fmt.Errorf("pipeline: executable has no text section")
	}
	if len(e.Routines()) == 0 {
		return nil, fmt.Errorf("pipeline: executable has no routines (call ReadContents first)")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	res := &Result{Exec: e}
	col := newCollector()
	tracer := opts.Tracer
	if tracer == nil {
		tracer = telemetry.ActiveTracer()
	}
	// begin opens a span tagged with the run's trace ID.
	begin := func(name, cat string, tid int) telemetry.Span {
		sp := tracer.BeginTID(name, cat, tid)
		if opts.TraceTag != "" {
			sp.Arg("trace", opts.TraceTag)
		}
		return sp
	}
	runSpan := begin("pipeline.AnalyzeAll", "pipeline", 0)
	start := time.Now()

	var salt uint64
	if opts.Cache != nil {
		timed(col.hashNS, func() { salt = imageSalt(e) })
	}

	// Waves: analyze every not-yet-analyzed routine, which may
	// discover hidden routines for the next wave.  Workers touch only
	// their own routine (plus executable-level state behind the
	// executable's lock), so each wave is race-free; the barrier
	// between waves makes discovery deterministic.
	discovered := 0
	waves := 0
	e.Waves(func(pending []*core.Routine) error { // never fails: errors stay per routine
		waves++
		if waves > 1 {
			discovered += len(pending)
		}
		waveSpan := begin(fmt.Sprintf("wave %d", waves), "pipeline", 0)
		waveSpan.Arg("routines", len(pending))

		out := make([]*RoutineAnalysis, len(pending))
		jobs := make(chan int)
		var wg sync.WaitGroup
		n := min(workers, len(pending))
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for idx := range jobs {
					r := pending[idx]
					sp := begin("analyze "+r.Name, "routine", worker+1)
					out[idx] = analyzeRoutine(e, r, opts, salt, col)
					if out[idx].FromCache {
						sp.Arg("cache", "hit")
						if out[idx].FromDisk {
							sp.Arg("disk", "hit")
						}
					}
					sp.End()
				}
			}(w)
		}
		for idx := range pending {
			jobs <- idx
		}
		close(jobs)
		wg.Wait()
		waveSpan.End()
		res.Analyses = append(res.Analyses, out...)
		return nil
	})

	// Collect in the executable's (address-sorted) routine order.
	slices.SortFunc(res.Analyses, func(a, b *RoutineAnalysis) int {
		return cmp.Compare(a.Routine.Start, b.Routine.Start)
	})
	var recs []Record
	for _, a := range res.Analyses {
		recs = append(recs, a.recs...)
	}

	// One disk write per run, as one segment.  A failed write only
	// costs future misses, so its error goes on the span.
	if len(recs) > 0 {
		sp := begin("pipeline.persist", "disk", 0)
		info, err := opts.Cache.backend.Persist(recs)
		if tracer != nil {
			sp.Arg("records", len(recs))
			sp.Arg("bytes", info.Bytes)
			sp.Arg("segment", info.Segment)
			sp.Arg("dropped_segments", info.Dropped)
			if err != nil {
				sp.Arg("error", err.Error())
			}
		}
		sp.End()
	}

	res.Stats.Routines = len(res.Analyses)
	res.Stats.Hidden = discovered
	res.Stats.Workers = workers
	res.Stats.Waves = waves
	res.Stats.Wall = time.Since(start)
	col.snapshot(&res.Stats)

	runSpan.Arg("routines", res.Stats.Routines)
	runSpan.Arg("waves", waves)
	runSpan.Arg("workers", workers)
	if opts.Cache != nil {
		runSpan.Arg("cache_hits", res.Stats.CacheHits)
		runSpan.Arg("cache_misses", res.Stats.CacheMisses)
	}
	runSpan.End()

	// Fold this run's private counters into the process-wide (or
	// caller-supplied) registry.  Doing it once at run end keeps the
	// workers' hot path free of global-registry traffic.
	dst := opts.Telemetry
	if dst == nil {
		dst = telemetry.Default()
	}
	col.reg.AddTo(dst)
	// Live gauges over the decoder's interning atomics; registering is
	// idempotent (latest decoder wins) and snapshot-time only.
	e.Dec.AttachTelemetry(dst)
	return res, nil
}

// analyzeRoutine produces one routine's bundle, consulting and
// populating the cache when one is configured.
func analyzeRoutine(e *core.Executable, r *core.Routine, opts Options, salt uint64, col *collector) *RoutineAnalysis {
	var key Key
	keyOK := false
	if opts.Cache != nil {
		timed(col.hashNS, func() { key, keyOK = routineKey(e, r, salt) })
		if keyOK {
			// First level: in-memory bundle.  A hit still has to cover
			// what this run asks for and have its out-of-routine read
			// dependencies intact; anything else falls through and is
			// counted as a miss.
			if b, hit := opts.Cache.lookup(key); hit && bundleCovers(b, opts) && b.depsValid(e) {
				opts.Cache.countHit(col)
				return adoptBundle(e, r, b, col)
			}
			// Second level: persisted bundle.  Decode re-derives the
			// instructions from this executable's image words, so a
			// decoded bundle is native to e; promote it to the
			// in-memory tier for the rest of the run, and copy it
			// forward on disk.
			if be := opts.Cache.backend; be != nil {
				if data, ok := be.Load(key); ok {
					if b, err := decodeBundle(e, data); err == nil && bundleCovers(b, opts) && b.depsValid(e) {
						opts.Cache.put(key, b, col)
						opts.Cache.countHit(col)
						col.cacheDiskHits.Add(1)
						a := adoptBundle(e, r, b, col)
						a.FromDisk = true
						a.recs = []Record{{Key: key, Data: data}}
						return a
					}
				}
			}
			opts.Cache.countMiss(col)
		}
	}

	preEnd := r.End
	a := &RoutineAnalysis{Routine: r}
	var g *cfg.Graph
	var err error
	timed(col.cfgNS, func() { g, err = r.ControlFlowGraph() })
	if err != nil {
		col.errs.Add(1)
		a.Err = err
		return a
	}
	a.Graph = g
	var insts int64
	for _, b := range g.Blocks {
		insts += int64(len(b.Insts))
	}
	col.insts.Add(uint64(insts))
	col.blocks.Add(uint64(len(g.Blocks)))
	col.edges.Add(uint64(len(g.Edges)))
	col.routineInsts.Observe(uint64(insts))

	if !opts.NoLiveness {
		timed(col.liveNS, func() {
			a.Liveness = dataflow.ComputeLiveness(g)
		})
		r.InstallGraph(g, a.Liveness)
	}
	if !opts.NoDominators || !opts.NoLoops {
		var idom *dataflow.DomTree
		timed(col.domNS, func() { idom = dataflow.Dominators(g) })
		if !opts.NoDominators {
			a.IDom = idom
		}
		if !opts.NoLoops {
			timed(col.loopNS, func() { a.Loops = dataflow.NaturalLoops(g, idom) })
		}
	}

	if opts.Cache != nil && keyOK {
		b := &bundle{
			graph:  g,
			live:   a.Liveness,
			idom:   a.IDom,
			loops:  a.Loops,
			insts:  insts,
			blocks: int64(len(g.Blocks)),
			edges:  int64(len(g.Edges)),
		}
		// Snapshot the out-of-routine words the analysis consulted;
		// depsValid re-reads them on every future hit.
		for _, addr := range g.ExternalReads {
			w, ok := e.ReadWord(addr)
			b.reads = append(b.reads, readDep{addr: addr, word: w, ok: ok})
		}
		if r.End < preEnd {
			// Analysis split an unreachable tail off this routine;
			// remember it so a hit on a fresh executable replays the
			// split.
			b.tail = r.End
		}
		opts.Cache.put(key, b, col)
		if opts.Cache.backend != nil {
			a.recs = []Record{{Key: key, Data: encodeBundle(b)}}
		}
		if b.tail != 0 {
			// Also index by the shrunken extent, so re-analyzing this
			// same (already split) executable still hits.
			var postKey Key
			var postOK bool
			timed(col.hashNS, func() { postKey, postOK = routineKey(e, r, salt) })
			if postOK {
				opts.Cache.put(postKey, b, col)
				if a.recs != nil {
					a.recs = append(a.recs, Record{Key: postKey, Data: a.recs[0].Data})
				}
			}
		}
	}
	return a
}

// bundleCovers reports whether a cached bundle satisfies what opts
// asks for (a bundle cached by a run that skipped liveness cannot
// serve a run that wants it).
func bundleCovers(b *bundle, opts Options) bool {
	if !opts.NoLiveness && b.live == nil {
		return false
	}
	if !opts.NoDominators && b.idom == nil {
		return false
	}
	if !opts.NoLoops && b.loops == nil {
		return false
	}
	return true
}

// adoptBundle installs a cached analysis into r: the routine's CFG
// accessor will return the cached graph, and a recorded hidden-tail
// discovery is replayed against this executable.
func adoptBundle(e *core.Executable, r *core.Routine, b *bundle, col *collector) *RoutineAnalysis {
	if b.tail != 0 && b.tail < r.End {
		e.RegisterHiddenTail(r, b.tail)
	}
	r.InstallGraph(b.graph, b.live)
	col.insts.Add(uint64(b.insts))
	col.blocks.Add(uint64(b.blocks))
	col.edges.Add(uint64(b.edges))
	return &RoutineAnalysis{
		Routine:   r,
		Graph:     b.graph,
		Liveness:  b.live,
		IDom:      b.idom,
		Loops:     b.loops,
		FromCache: true,
	}
}
