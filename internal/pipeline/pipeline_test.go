package pipeline_test

import (
	"fmt"
	"strings"
	"testing"

	"eel/internal/binfile"
	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/pipeline"
	"eel/internal/progen"
)

// corpus builds the progen workloads the determinism tests compare
// across worker counts: a gcc-style program (dispatch tables, hidden
// routines) and a sunpro-style one (unanalyzable continuation jumps).
func corpus(t testing.TB) []*binfile.File {
	t.Helper()
	var files []*binfile.File
	for _, c := range []progen.Config{
		func() progen.Config {
			c := progen.DefaultConfig(7)
			c.Routines = 30
			return c
		}(),
		func() progen.Config {
			c := progen.DefaultConfig(41)
			c.Routines = 24
			c.Personality = progen.SunPro
			return c
		}(),
	} {
		p, err := progen.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, p.File)
	}
	return files
}

func load(t testing.TB, f *binfile.File) *core.Executable {
	t.Helper()
	e, err := core.NewExecutable(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	return e
}

// fingerprint renders every analysis fact the pipeline produces for
// one routine into a canonical string, so results can be compared
// bit-for-bit across worker counts and against sequential calls.
func fingerprint(r *core.Routine, g *cfg.Graph, lv *dataflow.Liveness,
	idom *dataflow.DomTree, loops []*dataflow.Loop, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "routine %s %#x..%#x entries=%v hidden=%v\n", r.Name, r.Start, r.End, r.Entries, r.Hidden)
	if err != nil {
		fmt.Fprintf(&b, "  err=%v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "  complete=%v hasdata=%v warnings=%d\n", g.Complete, g.HasData, len(g.Warnings))
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "  B%d %s insts=%d uneditable=%v succ=", blk.ID, blk.Kind, len(blk.Insts), blk.Uneditable)
		for _, e := range blk.Succ {
			fmt.Fprintf(&b, "B%d[%s,%v] ", e.To.ID, e.Kind, e.Uneditable)
		}
		if lv != nil {
			fmt.Fprintf(&b, " in=%s out=%s", lv.In[blk.ID], lv.Out[blk.ID])
		}
		if idom != nil {
			if d := idom.IDom(blk); d != nil {
				fmt.Fprintf(&b, " idom=B%d", d.ID)
			} else {
				fmt.Fprintf(&b, " idom=nil")
			}
		}
		b.WriteString("\n")
	}
	for _, ij := range g.IndirectJumps {
		fmt.Fprintf(&b, "  ijump %#x resolved=%v table=%#x len=%d literal=%v target=%#x runtime=%v\n",
			ij.Addr, ij.Resolved, ij.TableAddr, ij.TableLen, ij.Literal, ij.LiteralTarget, ij.RuntimeOnly)
	}
	for _, l := range loops {
		fmt.Fprintf(&b, "  loop head=B%d body=%v backedges=%d\n", l.Head.ID, l.Body.IDs(), len(l.BackEdges))
	}
	return b.String()
}

// analyzeSequential is the ground truth: direct per-routine calls on
// the executable's sequential walk (hidden routines included), no
// pipeline involved.
func analyzeSequential(t testing.TB, f *binfile.File) []string {
	t.Helper()
	e := load(t, f)
	type res struct {
		g     *cfg.Graph
		lv    *dataflow.Liveness
		idom  *dataflow.DomTree
		loops []*dataflow.Loop
		err   error
	}
	done := map[*core.Routine]*res{}
	e.EachRoutine(func(r *core.Routine) error {
		g, err := r.ControlFlowGraph()
		rr := &res{g: g, err: err}
		if err == nil {
			rr.lv = dataflow.ComputeLiveness(g)
			rr.idom = dataflow.Dominators(g)
			rr.loops = dataflow.NaturalLoops(g, rr.idom)
		}
		done[r] = rr
		return nil
	})
	var out []string
	for _, r := range e.Routines() {
		rr := done[r]
		out = append(out, fingerprint(r, rr.g, rr.lv, rr.idom, rr.loops, rr.err))
	}
	return out
}

// analyzeParallel fingerprints one AnalyzeAll run.
func analyzeParallel(t testing.TB, f *binfile.File, opts pipeline.Options) ([]string, *pipeline.Result) {
	t.Helper()
	e := load(t, f)
	res, err := pipeline.AnalyzeAll(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, a := range res.Analyses {
		out = append(out, fingerprint(a.Routine, a.Graph, a.Liveness, a.IDom, a.Loops, a.Err))
	}
	return out, res
}

func diffFingerprints(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d routines, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: routine %d diverged:\n--- sequential ---\n%s--- pipeline ---\n%s", label, i, want[i], got[i])
		}
	}
}

// TestPipelineDeterminism asserts the parallel pipeline produces
// results identical to direct sequential analysis — CFG structure,
// liveness sets, dominators, loops, indirect-jump resolutions, and
// hidden-routine discoveries — at every worker count.
func TestPipelineDeterminism(t *testing.T) {
	for ci, f := range corpus(t) {
		want := analyzeSequential(t, f)
		for _, workers := range []int{1, 2, 8} {
			got, res := analyzeParallel(t, f, pipeline.Options{Workers: workers})
			diffFingerprints(t, fmt.Sprintf("corpus %d workers=%d", ci, workers), want, got)
			if res.Stats.Routines != len(want) {
				t.Errorf("stats.Routines = %d, want %d", res.Stats.Routines, len(want))
			}
		}
	}
}

// TestPipelineCacheCorrectness asserts a second analysis of the same
// image through a shared cache is 100% hits and yields identical
// results.
func TestPipelineCacheCorrectness(t *testing.T) {
	for ci, f := range corpus(t) {
		cache := pipeline.NewCache(0)
		first, res1 := analyzeParallel(t, f, pipeline.Options{Workers: 4, Cache: cache})
		if res1.Stats.CacheHits != 0 {
			// Identical routines inside one image may legitimately
			// hit (content-addressing shares them) — but only at
			// identical load addresses, which progen never produces.
			t.Errorf("corpus %d: first run had %d hits, want 0", ci, res1.Stats.CacheHits)
		}
		if res1.Stats.CacheMisses == 0 {
			t.Fatalf("corpus %d: first run recorded no misses", ci)
		}

		second, res2 := analyzeParallel(t, f, pipeline.Options{Workers: 4, Cache: cache})
		if res2.Stats.CacheMisses != 0 {
			t.Errorf("corpus %d: second run had %d misses, want 0 (hits=%d)",
				ci, res2.Stats.CacheMisses, res2.Stats.CacheHits)
		}
		if int(res2.Stats.CacheHits) != res2.Stats.Routines {
			t.Errorf("corpus %d: second run %d hits for %d routines",
				ci, res2.Stats.CacheHits, res2.Stats.Routines)
		}
		for _, a := range res2.Analyses {
			if !a.FromCache {
				t.Errorf("corpus %d: routine %s not served from cache", ci, a.Routine.Name)
			}
		}
		diffFingerprints(t, fmt.Sprintf("corpus %d cached-rerun", ci), first, second)

		// The cached run must also match plain sequential analysis.
		diffFingerprints(t, fmt.Sprintf("corpus %d cached-vs-sequential", ci), analyzeSequential(t, f), second)
	}
}

// TestPipelineCacheEviction asserts the LRU bound holds and evictions
// are counted.
func TestPipelineCacheEviction(t *testing.T) {
	f := corpus(t)[0]
	cache := pipeline.NewCache(4)
	_, res := analyzeParallel(t, f, pipeline.Options{Workers: 2, Cache: cache})
	if cache.Len() > 4 {
		t.Errorf("cache holds %d entries, capacity 4", cache.Len())
	}
	if res.Stats.CacheEvictions == 0 {
		t.Error("expected evictions with capacity 4")
	}
	// A rerun through the tiny cache still produces correct results,
	// just with few hits.
	got, _ := analyzeParallel(t, f, pipeline.Options{Workers: 2, Cache: cache})
	diffFingerprints(t, "evicting-cache rerun", analyzeSequential(t, f), got)
}

// TestPipelineHiddenRoutines asserts hidden-routine discovery happens
// inside the pipeline (waves) and is replayed from cache onto a fresh
// executable.
func TestPipelineHiddenRoutines(t *testing.T) {
	f := corpus(t)[0] // gcc corpus generates hidden routines
	e1 := load(t, f)
	cache := pipeline.NewCache(0)
	res1, err := pipeline.AnalyzeAll(e1, pipeline.Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Hidden == 0 || res1.Stats.Waves < 2 {
		t.Fatalf("corpus produced no hidden routines (hidden=%d waves=%d); pick a better seed",
			res1.Stats.Hidden, res1.Stats.Waves)
	}

	// Fresh executable, warm cache: the same routine set must emerge
	// even though every analysis is a hit.
	e2 := load(t, f)
	res2, err := pipeline.AnalyzeAll(e2, pipeline.Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Routines()) != len(e1.Routines()) {
		t.Errorf("cached run found %d routines, uncached %d", len(e2.Routines()), len(e1.Routines()))
	}
	if res2.Stats.Routines != res1.Stats.Routines {
		t.Errorf("cached run analyzed %d routines, uncached %d", res2.Stats.Routines, res1.Stats.Routines)
	}
	if res2.Stats.CacheMisses != 0 {
		t.Errorf("cached run had %d misses (tail-split replay broke keying?)", res2.Stats.CacheMisses)
	}
}

// TestPipelineStats sanity-checks the metrics block.
func TestPipelineStats(t *testing.T) {
	f := corpus(t)[0]
	_, res := analyzeParallel(t, f, pipeline.Options{Workers: 3})
	s := res.Stats
	if s.Workers != 3 {
		t.Errorf("Workers = %d, want 3", s.Workers)
	}
	if s.InstsDecoded == 0 || s.BlocksBuilt == 0 || s.EdgesBuilt == 0 {
		t.Errorf("work counters empty: %+v", s)
	}
	if s.Wall <= 0 || s.CFGTime <= 0 {
		t.Errorf("timing counters empty: wall=%v cfg=%v", s.Wall, s.CFGTime)
	}
	if s.RoutinesPerSec() <= 0 {
		t.Error("RoutinesPerSec = 0")
	}
	if !strings.Contains(s.String(), "routines") {
		t.Errorf("String() = %q", s.String())
	}
	// Stage selection: skipping stages must leave their results nil.
	e := load(t, f)
	res2, err := pipeline.AnalyzeAll(e, pipeline.Options{NoLiveness: true, NoDominators: true, NoLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res2.Analyses {
		if a.Liveness != nil || a.IDom != nil || a.Loops != nil {
			t.Fatal("skipped stages still produced results")
		}
	}
	if res2.Stats.LivenessTime != 0 || res2.Stats.DomTime != 0 {
		t.Errorf("skipped stages recorded time: %+v", res2.Stats)
	}
}

// TestPipelineOptionsMismatchRecomputes asserts a bundle cached
// without dataflow stages does not satisfy a run that wants them.
func TestPipelineOptionsMismatchRecomputes(t *testing.T) {
	f := corpus(t)[0]
	cache := pipeline.NewCache(0)
	if _, err := pipeline.AnalyzeAll(load(t, f), pipeline.Options{
		Cache: cache, NoLiveness: true, NoDominators: true, NoLoops: true,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.AnalyzeAll(load(t, f), pipeline.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Analyses {
		if a.Err == nil && a.Liveness == nil {
			t.Fatalf("routine %s: liveness missing after cache upgrade", a.Routine.Name)
		}
	}
	// And the upgraded bundles now serve full requests.
	res2, err := pipeline.AnalyzeAll(load(t, f), pipeline.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheMisses != 0 {
		t.Errorf("upgraded cache still missing: %d misses", res2.Stats.CacheMisses)
	}
}

// TestAnalyzeAllErrors covers argument validation.
func TestAnalyzeAllErrors(t *testing.T) {
	if _, err := pipeline.AnalyzeAll(nil, pipeline.Options{}); err == nil {
		t.Error("nil executable accepted")
	}
	e := load(t, corpus(t)[0])
	fresh, err := core.NewExecutable(e.File)
	if err != nil {
		t.Fatal(err)
	}
	// No ReadContents: no routines.
	if _, err := pipeline.AnalyzeAll(fresh, pipeline.Options{}); err == nil {
		t.Error("routine-less executable accepted")
	}
}
