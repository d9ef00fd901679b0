package main

import (
	"math/rand"
	"time"
)

// editCorpus is the edit workload's input: the same number of
// 200-routine binaries in each of the four GCC/SunPro ×
// symbols/stripped cells, drawn from the pool by the seed, so symbol
// refinement, stripped-code recovery and the SunPro unanalyzable-jump
// idiom all carry their share.
func editCorpus(o *runOpts) ([]*corpusFile, []refused, error) {
	entries, err := drawCorpus(o.size.corpus, "edit", o.size.editPerCell, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, nil, err
	}
	return buildCorpus(entries, o.log)
}

// editPhase is one measured stretch of the edit workload: the corpus
// is edited in a cycle, one binary at a time, with nothing cached
// between binaries.
type editPhase struct {
	lat, tracedLat []float64 // per-binary read→write wall time, ms
	routines       int
	busy           time.Duration
	slow           float64 // the calibrator's slowdown over the phase
}

// runEditPhase edits the corpus in a cycle until d elapses; with a
// recorder, every other cycle is traced.
func runEditPhase(files []*corpusFile, d time.Duration, rec *recorder, r *result) *editPhase {
	ph := &editPhase{}
	cal := startCalibrator()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		c := files[i%len(files)]
		opRec := traced(rec, i, len(files))
		r.attempted++
		var ed *edited
		var err error
		var el time.Duration
		cal.op(func() {
			op := opRec.root("edit", 1)
			t0 := time.Now()
			ed, err = editBinary(c.in.bytes, opRec, op)
			el = time.Since(t0)
			opRec.end(op)
		})
		if err != nil {
			r.failed++
			r.logf("edit failed: %v: %v", c.in, err)
			continue
		}
		if opRec != nil {
			ph.tracedLat = append(ph.tracedLat, float64(el)/1e6)
		} else {
			ph.lat = append(ph.lat, float64(el)/1e6)
		}
		ph.busy += el
		ph.routines += ed.routines
		if got := shaHex(ed.bytes); got != c.sha {
			r.problem("%v: edited bytes differ between reps (sha %.12s vs %.12s)", c.in, got, c.sha)
		}
	}
	ph.slow = cal.finish()
	return ph
}

const editTail = 90 // percentile reported as tail_ms

func runEdit(o *runOpts) (*result, error) {
	r := newResult(o)
	var files []*corpusFile
	var bad []refused
	err := r.setups(o, func() error {
		var err error
		files, bad, err = editCorpus(o)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.refusals(bad)
	var rec *recorder
	if o.trace {
		rec = newRecorder(false)
		r.recs["edit ops"] = rec
	}
	ph := runEditPhase(files, o.phase, rec, r)
	r.slow = ph.slow
	r.reportLatency(ph.lat, editTail, "per-binary read→write")
	r.e2e["throughput"] = float64(ph.routines) / ph.busy.Seconds()
	r.note("throughput: routines edited per second of edit time (%d in %.2fs)", ph.routines, ph.busy.Seconds())
	r.overhead(ph.lat, ph.tracedLat)
	return r, r.finishCorpus(o, files)
}

// finishCorpus runs the checks and metrics every corpus-based workload
// shares: each reference edit against its original, and, when traced,
// the attribution pass.
func (r *result) finishCorpus(o *runOpts, files []*corpusFile) error {
	insts, text, err := checkCorpus(files)
	if err != nil {
		r.problem("%v", err)
	}
	r.e2e["edited_insts_ratio"] = insts
	r.e2e["text_growth"] = text
	r.note("corpus: %d binaries, %d routines", len(files), corpusRoutines(files))
	if o.trace {
		return r.attribution(files)
	}
	return nil
}

func corpusRoutines(files []*corpusFile) int {
	n := 0
	for _, c := range files {
		n += c.edit.analyzed
	}
	return n
}
