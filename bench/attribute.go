package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"eel"
	"eel/internal/dataflow"
	"eel/internal/qpt"
)

// attribute is the sequential attribution pass over a workload's
// corpus: each layer is called directly, one at a time, with time and
// heap allocations taken around every call.  Run it only while nothing
// else in the process allocates.  Automatic garbage collection is off
// during the pass and a collection runs before each binary instead:
// collections empty sync.Pools and defer pools, and the refills would
// otherwise make allocation counts depend on when a collection
// happened to start.  With that, the counts repeat from run to run,
// except that layers which intern new instruction words (core.load and
// pipeline.analyze, now and then core.build) can differ by a few in
// 100 000: the interning tables are sync.Maps, whose hash trie uses a
// random seed per map.  The times exclude collection.  Metrics are
// means per corpus binary.  The pass also re-derives every edit without the concurrent
// pipeline, and the bytes must match the reference edit.
func attribute(files []*corpusFile) (map[string]float64, *recorder, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rec := newRecorder(true)
	sum := map[string]float64{}
	for _, c := range files {
		runtime.GC()
		op := rec.root("attribute", 1)
		if err := attributeOne(c, rec, op, sum); err != nil {
			return nil, nil, fmt.Errorf("attribution pass: %v: %w", c.in, err)
		}
		rec.end(op)
	}
	out := map[string]float64{}
	for _, l := range rec.layers() {
		if l.name == "attribute" {
			continue
		}
		out[l.name+"_ms"] = float64(l.total) / 1e6
		out[l.name+"_allocs"] = float64(l.allocs)
	}
	for k, v := range sum {
		out[k] = v
	}
	n := float64(len(files))
	for k := range out {
		out[k] /= n
	}
	return out, rec, nil
}

// attribution runs the attribution pass over files and records its
// metrics and spans in r.
func (r *result) attribution(files []*corpusFile) error {
	m, rec, err := attribute(files)
	if err != nil {
		return err
	}
	for k, v := range m {
		r.layer[k] = v
	}
	r.recs["attribution"] = rec
	return nil
}

func attributeOne(c *corpusFile, rec *recorder, op int, sum map[string]float64) error {
	sp := rec.child(op, "binfile.read")
	f, err := eel.ReadImage(c.in.bytes)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.child(op, "core.load")
	e, err := eel.Load(f)
	rec.end(sp)
	if err != nil {
		return err
	}
	sum["core.routines"] += float64(len(e.Routines()))

	// The concurrent pipeline, as the edit path runs it.
	sp = rec.child(op, "pipeline.analyze")
	res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{NoDominators: true, NoLoops: true})
	rec.end(sp)
	if err != nil {
		return err
	}
	sum["core.hidden"] += float64(res.Stats.Hidden)

	// The same analyses called one routine at a time on a fresh load,
	// in the pipeline's wave order (CFG construction can split off
	// hidden routines, which the next wave picks up).
	f, err = eel.ReadImage(c.in.bytes)
	if err != nil {
		return err
	}
	e, err = eel.Load(f)
	if err != nil {
		return err
	}
	done := map[*eel.Routine]bool{}
	for {
		var pending []*eel.Routine
		for _, r := range e.Routines() {
			if !done[r] {
				pending = append(pending, r)
			}
		}
		if len(pending) == 0 {
			break
		}
		for _, r := range pending {
			done[r] = true
			sp = rec.child(op, "cfg.build")
			g, err := r.ControlFlowGraph()
			rec.end(sp)
			if err != nil {
				continue // the pipeline records these as per-routine errors too
			}
			sum["cfg.blocks"] += float64(len(g.Blocks))
			sum["cfg.edges"] += float64(len(g.Edges))
			for _, ij := range g.IndirectJumps {
				sum["cfg.ijumps"]++
				if !ij.Resolved {
					sum["cfg.ijumps_unresolved"]++
				}
			}
			sp = rec.child(op, "dataflow.liveness")
			eel.ComputeLiveness(g)
			rec.end(sp)
			sp = rec.child(op, "dataflow.dominators")
			idom := eel.Dominators(g)
			rec.end(sp)
			sp = rec.child(op, "dataflow.loops")
			dataflow.NaturalLoops(g, idom)
			rec.end(sp)
		}
	}

	sp = rec.child(op, "qpt.instrument")
	q, err := qpt.Instrument(e, qpt.Full)
	rec.end(sp)
	if err != nil {
		return err
	}
	sum["qpt.edits"] += float64(q.Edits)
	sum["core.snippet.scavenged"] += float64(e.Stats.Scavenged)
	sum["core.snippet.spilled"] += float64(e.Stats.Spilled)
	sum["core.snippet.cc_live"] += float64(e.Stats.CCLive)
	sp = rec.child(op, "core.build")
	out, err := e.BuildEdited()
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.child(op, "binfile.write")
	b, err := eel.WriteImage(out)
	rec.end(sp)
	if err != nil {
		return err
	}
	if got := shaHex(b); got != c.sha {
		return fmt.Errorf("edit re-derived routine by routine differs from the pipeline's (sha %.12s vs %.12s)", got, c.sha)
	}
	return nil
}
