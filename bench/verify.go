package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"eel/internal/binfile"
	"eel/internal/progen"
	"eel/internal/sim"
	"eel/internal/toolmain"
)

// expectedJSON is the verify workload's program pool with each
// original's behaviour as the interpreter produced it (-regen-expected).
//
//go:embed testdata/expected.json
var expectedJSON []byte

// poolEntry is one pool program: its generator settings and the
// interpreter's reference behaviour, keyed by the binary's SHA-256.
type poolEntry struct {
	Flavour string `json:"flavour"`
	Seed    int64  `json:"seed"`
	HotLoop int    `json:"hot_loop,omitempty"`
	SHA256  string `json:"sha256"`
	Exit    uint32 `json:"exit"`
	Output  string `json:"output_sha256"`
	Insts   uint64 `json:"insts"`
}

type expectedFile struct {
	About    string      `json:"about"`
	Target   uint64      `json:"target_insts"`
	Programs []poolEntry `json:"programs"`
}

func loadPool() ([]poolEntry, error) {
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return ef.Programs, nil
}

// flavourConfig is the progen configuration of a verify flavour.  The
// shapes follow the repository's emulator benchmarks: medium is a
// 60-routine program whose run is dominated by translation start-up;
// loopheavy repeats the same paths across many block boundaries;
// callheavy is deep windowed call DAGs; memhot is load/store-biased
// code in a hot loop.  hotLoop scales the loop flavours' run length.
func flavourConfig(flavour string, seed int64, hotLoop int) progen.Config {
	cfg := progen.DefaultConfig(seed)
	switch flavour {
	case "medium":
		cfg.Routines = 60
	case "loopheavy":
		cfg.HotLoop = hotLoop
	case "callheavy":
		cfg.Routines = 30
		cfg.CallHeavy = true
		cfg.HotLoop = hotLoop
	case "memhot":
		cfg.MemHeavy = true
		cfg.HotLoop = hotLoop
	}
	return cfg
}

// verifyProg is one drawn program and what its verify jobs measured.
type verifyProg struct {
	flavour string
	in      *input
	want    outcome // the original's behaviour, from the interpreter
	edSHA   string
	edInsts uint64
	text    [2]int // original, edited text bytes

	runs     []float64 // orig+edited run seconds
	allocs   []float64 // orig+edited run allocations
	last     [2]*execution
	loads    []float64 // ms
	editMS   []float64
	edited   *binfile.File
	original *binfile.File
}

// drawPrograms picks perFlavour programs of each flavour from the pool
// by seed and regenerates them.  A program whose bytes no longer match
// the pool's SHA-256 (the generator changed) gets its reference from
// the interpreter here, in set-up, where the cost shows in setup_s.
func drawPrograms(o *runOpts, pool []poolEntry) ([]*verifyProg, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var progs []*verifyProg
	for _, fl := range flavours {
		var cands []poolEntry
		for _, e := range pool {
			if e.Flavour == fl {
				cands = append(cands, e)
			}
		}
		if len(cands) < o.size.verifyPerFlavour {
			return nil, fmt.Errorf("pool has %d %s programs, want %d", len(cands), fl, o.size.verifyPerFlavour)
		}
		for _, i := range rng.Perm(len(cands))[:o.size.verifyPerFlavour] {
			e := cands[i]
			in, err := generate(flavourConfig(fl, e.Seed, e.HotLoop))
			if err != nil {
				return nil, err
			}
			p := &verifyProg{flavour: fl, in: in}
			if in.sha == e.SHA256 {
				p.want = outcome{exit: e.Exit, output: e.Output, insts: e.Insts}
			} else {
				o.log.printf("expected output unknown for %v; running the interpreter", in)
				if p.want, err = reference(in.bytes); err != nil {
					return nil, fmt.Errorf("%v: interpreter: %w", in, err)
				}
			}
			if p.original, err = binfile.Read(in.bytes); err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
	}
	return progs, nil
}

// verifyWorkload is eeld's verify job on one engine: the routine tier,
// which eeld and eelverify use, or the chained engine, which eelprof
// uses.
type verifyWorkload struct {
	engine string
	tail   float64 // the percentile reported as tail_ms
}

// job is eeld's verify job run in-process: edit the program, run the
// original and the edited binary, and compare exit code, output and
// instruction counts with the reference.
func (w verifyWorkload) job(p *verifyProg, rec *recorder, r *result) (time.Duration, error) {
	op := rec.root("verify", 1)
	defer rec.end(op)
	t0 := time.Now()
	sp := rec.child(op, "verify.edit")
	ed, err := editBinary(p.in.bytes, rec, sp)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	p.editMS = append(p.editMS, float64(time.Since(t0))/1e6)
	sha := shaHex(ed.bytes)
	if p.edSHA == "" {
		p.edSHA = sha
		p.text = [2]int{ed.origText, ed.edText}
		if p.edited, err = binfile.Read(ed.bytes); err != nil {
			return 0, err
		}
	} else if sha != p.edSHA {
		r.problem("%v: edited bytes differ between reps", p.in)
	}
	counting := rec != nil
	sp = rec.child(op, "sim."+w.engine)
	xo, err := execute(p.original, w.engine, counting)
	if err != nil {
		rec.end(sp)
		return 0, fmt.Errorf("original: %w", err)
	}
	xe, err := execute(p.edited, w.engine, counting)
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("edited: %w", err)
	}
	if xo.out != p.want {
		r.problem("%v: original on the %s engine: %v, reference %v", p.in, w.engine, xo.out, p.want)
	}
	if !xe.out.sameBehaviour(p.want) {
		r.problem("%v: edited on the %s engine: %v, original %v", p.in, w.engine, xe.out, p.want)
	}
	if p.edInsts == 0 {
		p.edInsts = xe.out.insts
	} else if xe.out.insts != p.edInsts {
		r.problem("%v: edited program ran %d insts on the %s engine, %d before", p.in, xe.out.insts, w.engine, p.edInsts)
	}
	p.runs = append(p.runs, (xo.run + xe.run).Seconds())
	if counting {
		p.allocs = append(p.allocs, float64(xo.allocs+xe.allocs))
	}
	p.last = [2]*execution{xo, xe}
	p.loads = append(p.loads, float64(xo.load)/1e6, float64(xe.load)/1e6)
	return time.Since(t0), nil
}

// phase runs verify jobs over the drawn programs in whole passes until
// d has elapsed, so every program has the same number of jobs; with a
// recorder, every other pass is traced.  It returns the untraced job
// times and each untraced pass's mean job time, the same for traced
// passes, and the calibrator's slowdown.
func (w verifyWorkload) phase(progs []*verifyProg, d time.Duration, rec *recorder, r *result) (lat, passes, tracedPasses []float64, slow float64) {
	for _, p := range progs {
		p.runs, p.allocs, p.loads, p.editMS = nil, nil, nil, nil
	}
	cal := startCalibrator()
	deadline := time.Now().Add(d)
	var pass float64
	for i := 0; i%len(progs) != 0 || time.Now().Before(deadline); i++ {
		p := progs[i%len(progs)]
		opRec := traced(rec, i, len(progs))
		r.attempted++
		var el time.Duration
		var err error
		cal.op(func() { el, err = w.job(p, opRec, r) })
		if err != nil {
			r.failed++
			r.logf("verify failed: %v: %v", p.in, err)
		} else {
			if opRec == nil {
				lat = append(lat, float64(el)/1e6)
			}
			pass += float64(el) / 1e6
		}
		if (i+1)%len(progs) == 0 {
			if opRec == nil {
				passes = append(passes, pass/float64(len(progs)))
			} else {
				tracedPasses = append(tracedPasses, pass/float64(len(progs)))
			}
			pass = 0
		}
	}
	return lat, passes, tracedPasses, cal.finish()
}

// rate is a program's emulation speed in instructions per second:
// original plus edited instructions over the median time of the two
// runs.
func (p *verifyProg) rate() float64 {
	return float64(p.want.insts+p.edInsts) / median(p.runs)
}

func (w verifyWorkload) run(o *runOpts) (*result, error) {
	r := newResult(o)
	var progs []*verifyProg
	var bad []refused
	err := r.setups(o, func() error {
		drawn, err := drawPrograms(o, o.size.pool)
		if err != nil {
			return err
		}
		// Warm-up: one job each, not measured.  A program whose job
		// fails is left out of the phase and counted as a failed op.
		progs, bad = nil, nil
		for _, p := range drawn {
			if _, err := w.job(p, nil, r); err != nil {
				bad = append(bad, refused{p.in, err})
				continue
			}
			progs = append(progs, p)
		}
		if len(progs) == 0 {
			return fmt.Errorf("every drawn program's verify job failed, the first with: %v", bad[0].err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.refusals(bad)
	var rec *recorder
	if o.trace {
		rec = newRecorder(false)
		r.recs["verify ops"] = rec
	}
	lat, passes, tracedPasses, slow := w.phase(progs, o.phase, rec, r)
	r.slow = slow
	r.reportLatency(lat, w.tail, fmt.Sprintf("per-program verify job (edit, then original and edited on the %s engine)", w.engine))
	// Jobs of different programs take different times, so a plain median
	// of job times jumps between programs as the seed changes the draw.
	// Every pass verifies each drawn program once, so the median over
	// passes of the mean job time does not.
	r.e2e["p50_ms"] = median(passes)
	r.note("p50_ms: median over %d passes of the mean job time", len(passes))
	var rates []float64
	for _, p := range progs {
		rates = append(rates, p.rate())
	}
	r.e2e["throughput"] = geomean(rates)
	r.note("throughput: emulated insts/s on the %s engine, geomean over %d programs", w.engine, len(progs))
	if o.trace {
		r.overhead(passes, tracedPasses)
		if err := w.layers(progs, r); err != nil {
			return nil, err
		}
	}
	var ratios []float64
	var orig, nd int
	files := make([]*corpusFile, len(progs))
	for i, p := range progs {
		ratios = append(ratios, float64(p.edInsts)/float64(p.want.insts))
		orig += p.text[0]
		nd += p.text[1]
		files[i] = &corpusFile{in: p.in, sha: p.edSHA}
	}
	r.e2e["edited_insts_ratio"] = geomean(ratios)
	r.e2e["text_growth"] = float64(nd) / float64(orig)
	r.note("programs: %d (%d per flavour drawn), %d original insts in all", len(progs), o.size.verifyPerFlavour, totalInsts(progs))
	if o.trace {
		if err := r.attribution(files); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func totalInsts(progs []*verifyProg) uint64 {
	var n uint64
	for _, p := range progs {
		n += p.want.insts
	}
	return n
}

// layers fills the emulator's per-layer metrics of the workload's
// engine from the traced half.  The routine workload also measures the
// translated engine and the interpreter, which only its traced run
// runs.
func (w verifyWorkload) layers(progs []*verifyProg, r *result) error {
	routine := w.engine == toolmain.EngineRoutine
	var loads, edits, all []float64
	for _, fl := range flavours {
		var ps []*verifyProg
		for _, p := range progs {
			if p.flavour == fl {
				ps = append(ps, p)
			}
		}
		if len(ps) == 0 {
			continue
		}
		var tr, rates, interp []float64
		var allocs, chainHit, icHit, traces, compiled, deopts float64
		for _, p := range ps {
			rates = append(rates, p.rate()/1e6)
			allocs += median(p.allocs)
			// Counters of the last job's original and edited runs.
			var c sim.Counters
			for _, x := range p.last {
				c.ChainHits += x.counters.ChainHits
				c.ChainMisses += x.counters.ChainMisses
				c.ICHits += x.counters.ICHits
				c.ICMisses += x.counters.ICMisses
				c.Traces += x.counters.Traces
				c.RoutinesCompiled += x.counters.RoutinesCompiled
				c.RoutineDeopts += x.counters.RoutineDeopts
			}
			chainHit += pct(c.ChainHits, c.ChainMisses)
			icHit += pct(c.ICHits, c.ICMisses)
			traces += float64(c.Traces)
			compiled += float64(c.RoutinesCompiled)
			deopts += float64(c.RoutineDeopts)
			loads = append(loads, p.loads...)
			edits = append(edits, p.editMS...)
			if !routine {
				continue
			}
			var t []float64
			for i := 0; i < 3; i++ {
				xo, err := execute(p.original, toolmain.EngineTranslated, false)
				if err != nil {
					return err
				}
				xe, err := execute(p.edited, toolmain.EngineTranslated, false)
				if err != nil {
					return err
				}
				if xo.out != p.want || !xe.out.sameBehaviour(p.want) {
					r.problem("%v: translated engine diverged: %v / %v, reference %v", p.in, xo.out, xe.out, p.want)
				}
				t = append(t, (xo.run + xe.run).Seconds())
			}
			tr = append(tr, float64(p.want.insts+p.edInsts)/median(t)/1e6)
			if fl == "medium" {
				x, err := execute(p.original, toolmain.EngineInterp, false)
				if err != nil {
					return err
				}
				interp = append(interp, float64(x.out.insts)/x.run.Seconds()/1e6)
			}
		}
		all = append(all, rates...)
		n := float64(len(ps))
		e := w.engine
		r.layer["sim."+e+".minsts_s."+fl] = geomean(rates)
		r.layer["sim."+e+".allocs."+fl] = allocs / n
		if routine {
			r.layer["sim.routine.compiled."+fl] = compiled / n
			r.layer["sim.routine.deopts."+fl] = deopts / n
			r.layer["sim.translated.minsts_s."+fl] = geomean(tr)
			if fl == "medium" {
				r.layer["sim.interp.minsts_s.medium"] = geomean(interp)
			}
		} else {
			r.layer["sim.chained.chain_hit_pct."+fl] = chainHit / n
			r.layer["sim.chained.ic_hit_pct."+fl] = icHit / n
			r.layer["sim.chained.traces."+fl] = traces / n
		}
	}
	r.layer["sim."+w.engine+".minsts_s"] = geomean(all)
	r.layer["sim.load_ms"] = median(loads)
	r.layer["verify.edit_ms"] = median(edits)
	return nil
}

func pct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
