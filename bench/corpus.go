package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"eel"
	"eel/internal/binfile"
	"eel/internal/progen"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/toolmain"
)

// input is one generated program: the only thing the code under test
// sees is its bytes; the config is kept to name a failing input.
type input struct {
	cfg   progen.Config
	bytes []byte
	sha   string
}

func (in *input) String() string { return fmt.Sprintf("progen %+v", in.cfg) }

func shaHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func generate(cfg progen.Config) (*input, error) {
	p, err := progen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	b, err := binfile.Write(p.File)
	if err != nil {
		return nil, err
	}
	return &input{cfg: cfg, bytes: b, sha: shaHex(b)}, nil
}

// edited is the result of one qpt2 edit.
type edited struct {
	bytes            []byte
	routines         int // routines instrumented, hidden ones included
	analyzed         int // routines the pipeline analyzed
	errors           int // routines whose CFG construction failed
	origText, edText int
}

// editBinary is the qpt2 path: read → load (symbol refinement) →
// concurrent analysis with the default worker count and no
// dominators/loops → full instrumentation → layout → write.  Each
// layer call gets a span under parent when rec is non-nil.
func editBinary(bin []byte, rec *recorder, parent int) (*edited, error) {
	sp := rec.child(parent, "binfile.read")
	f, err := eel.ReadImage(bin)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.child(parent, "core.load")
	e, err := eel.Load(f)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.child(parent, "pipeline.analyze")
	res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{NoDominators: true, NoLoops: true})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.child(parent, "qpt.instrument")
	q, err := qpt.Instrument(e, qpt.Full)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.child(parent, "core.build")
	out, err := e.BuildEdited()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.child(parent, "binfile.write")
	b, err := eel.WriteImage(out)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return &edited{
		bytes: b, routines: q.RoutinesSeen,
		analyzed: res.Stats.Routines, errors: res.Stats.Errors,
		origText: len(f.Text().Data), edText: len(out.Text().Data),
	}, nil
}

// outcome is a program run's observable behaviour.
type outcome struct {
	exit   uint32
	output string // SHA-256 of everything the program wrote
	insts  uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("exit %d, output %.12s, %d insts", o.exit, o.output, o.insts)
}

// sameBehaviour compares what a user observes (exit code and output);
// instruction counts legitimately differ between original and edited.
func (o outcome) sameBehaviour(x outcome) bool { return o.exit == x.exit && o.output == x.output }

const maxSteps = 1_000_000_000

// execution is one emulator run and what it cost.
type execution struct {
	out      outcome
	load     time.Duration
	run      time.Duration
	counters sim.Counters
	allocs   uint64 // heap allocations during Run, when counted
}

// execute loads and runs f on the named engine.  Engines are chosen
// only through toolmain.ConfigureEngine; the routine tier compiles
// synchronously at heat threshold 1, as eeld's verify job does.
func execute(f *binfile.File, engine string, countAllocs bool) (*execution, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	cpu := sim.LoadFile(f, &buf)
	x := &execution{load: time.Since(t0)}
	toolmain.ConfigureEngine(cpu, engine)
	if engine == toolmain.EngineRoutine {
		cpu.RoutineSync = true
		cpu.RoutineHotThreshold = 1
	}
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	t0 = time.Now()
	err := cpu.Run(maxSteps)
	x.run = time.Since(t0)
	if countAllocs {
		x.allocs = mallocs() - m0
	}
	if err != nil {
		return nil, fmt.Errorf("%s engine: %w", engine, err)
	}
	if !cpu.Halted {
		return nil, fmt.Errorf("%s engine: program did not halt within %d steps", engine, uint64(maxSteps))
	}
	x.out = outcome{exit: cpu.ExitCode, output: shaHex(buf.Bytes()), insts: cpu.InstCount}
	x.counters = cpu.Counters()
	return x, nil
}

// reference runs the original on the interpreter, the engine the
// faster tiers are differentially tested against.
func reference(bin []byte) (outcome, error) {
	f, err := binfile.Read(bin)
	if err != nil {
		return outcome{}, err
	}
	x, err := execute(f, toolmain.EngineInterp, false)
	if err != nil {
		return outcome{}, err
	}
	return x.out, nil
}

// checkEdit runs an original and its edited version on the routine
// tier: the original must reproduce the reference exactly and the
// edited program must behave the same.  It returns edited/original
// executed instructions.
func checkEdit(orig, ed []byte, ref outcome) (float64, error) {
	of, err := binfile.Read(orig)
	if err != nil {
		return 0, err
	}
	o, err := execute(of, toolmain.EngineRoutine, false)
	if err != nil {
		return 0, fmt.Errorf("original: %w", err)
	}
	if o.out != ref {
		return 0, fmt.Errorf("original on the routine tier: %v, reference %v", o.out, ref)
	}
	ef, err := binfile.Read(ed)
	if err != nil {
		return 0, err
	}
	x, err := execute(ef, toolmain.EngineRoutine, false)
	if err != nil {
		return 0, fmt.Errorf("edited: %w", err)
	}
	if !x.out.sameBehaviour(ref) {
		return 0, fmt.Errorf("edited: %v, original %v", x.out, ref)
	}
	return float64(x.out.insts) / float64(ref.insts), nil
}

// corpusJSON is the pool the edit and eeld workloads draw their inputs
// from (-regen-corpus).
//
//go:embed testdata/corpus.json
var corpusJSON []byte

// corpusEntry is one pool program: its generator settings, and the
// SHA-256 of the bytes they gave when the pool was built.
type corpusEntry struct {
	Set      string `json:"set"` // "edit" or "eeld"
	SunPro   bool   `json:"sunpro,omitempty"`
	Strip    bool   `json:"strip,omitempty"`
	Routines int    `json:"routines"`
	Seed     int64  `json:"seed"`
	SHA256   string `json:"sha256,omitempty"`
}

func (e corpusEntry) config() progen.Config {
	cfg := progen.DefaultConfig(e.Seed)
	cfg.Routines = e.Routines
	if e.SunPro {
		cfg.Personality = progen.SunPro
	}
	cfg.Strip = e.Strip
	return cfg
}

// refusal is a generated program the editor refused while the pool was
// built: its generator configuration and the error, as a repro.
type refusal struct {
	Config string `json:"config"`
	Error  string `json:"error"`
}

type corpusPoolFile struct {
	About    string        `json:"about"`
	Programs []corpusEntry `json:"programs"`
	Refused  []refusal     `json:"refused"`
}

func loadCorpusPool() ([]corpusEntry, error) {
	var f corpusPoolFile
	if err := json.Unmarshal(corpusJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/corpus.json: %w", err)
	}
	return f.Programs, nil
}

// drawCorpus picks perCell entries of set from the pool in each cell
// (personality × stripped), in a fixed cell order, by the seed.
func drawCorpus(pool []corpusEntry, set string, perCell int, rng *rand.Rand) ([]corpusEntry, error) {
	var out []corpusEntry
	for _, sunpro := range []bool{false, true} {
		for _, strip := range []bool{false, true} {
			var cands []corpusEntry
			for _, e := range pool {
				if e.Set == set && e.SunPro == sunpro && e.Strip == strip {
					cands = append(cands, e)
				}
			}
			if len(cands) == 0 {
				continue // the eeld set has no stripped cells
			}
			if len(cands) < perCell {
				return nil, fmt.Errorf("corpus pool has %d %s programs (sunpro %v, strip %v), want %d", len(cands), set, sunpro, strip, perCell)
			}
			for _, i := range rng.Perm(len(cands))[:perCell] {
				out = append(out, cands[i])
			}
		}
	}
	return out, nil
}

// corpusFile is one accepted corpus binary with its reference edit.
type corpusFile struct {
	in   *input
	edit *edited
	sha  string // SHA-256 of the edited bytes
}

// refused is a drawn input the editor refused during set-up.
type refused struct {
	in  *input
	err error
}

// buildCorpus generates the drawn entries and edits each once.  An
// input the editor refuses is left out of the measured phase and
// returned, so that the run counts it as a failed op; nothing takes
// its place.
func buildCorpus(entries []corpusEntry, log *logger) ([]*corpusFile, []refused, error) {
	var out []*corpusFile
	var bad []refused
	for _, e := range entries {
		in, err := generate(e.config())
		if err != nil {
			return nil, nil, err
		}
		if e.SHA256 != "" && in.sha != e.SHA256 {
			log.printf("note: %v no longer generates the bytes the pool was built from; rebuild it with -regen-corpus", in)
		}
		ed, err := editBinary(in.bytes, nil, -1)
		if err != nil {
			bad = append(bad, refused{in, err})
			continue
		}
		out = append(out, &corpusFile{in: in, edit: ed, sha: shaHex(ed.bytes)})
	}
	if len(out) == 0 {
		for _, x := range bad {
			log.printf("refused input: %v: %v", x.in, x.err)
		}
		return nil, nil, fmt.Errorf("the editor accepted none of the %d drawn inputs", len(entries))
	}
	return out, bad, nil
}

// refusals counts each input the editor refused during set-up as an
// attempted, failed op, and prints its generator configuration and
// error so that it can be pinned as a repro.
func (r *result) refusals(bad []refused) {
	for _, x := range bad {
		r.attempted++
		r.failed++
		r.logf("refused input: %v: %v", x.in, x.err)
	}
}

// checkCorpus runs every corpus binary's reference edit against its
// original (reference from the interpreter) and returns the geomean of
// edited/original executed instructions and the text growth.
func checkCorpus(files []*corpusFile) (insts, text float64, err error) {
	var ratios []float64
	var orig, nd int
	for _, c := range files {
		ref, err := reference(c.in.bytes)
		if err != nil {
			return 0, 0, fmt.Errorf("%v: interpreter: %w", c.in, err)
		}
		r, err := checkEdit(c.in.bytes, c.edit.bytes, ref)
		if err != nil {
			return 0, 0, fmt.Errorf("%v: %w", c.in, err)
		}
		ratios = append(ratios, r)
		orig += c.edit.origText
		nd += c.edit.edText
	}
	return geomean(ratios), float64(nd) / float64(orig), nil
}
