// Command eelbench is the repository's benchmark.  It measures the
// three paths a user runs — a qpt2 edit, an eeld-style verify job, and
// eeld requests from the client's socket back to the client — end to
// end, and with -trace 1 splits them into the layers the paper names.
//
// Usage (from the repository root; run.sh builds into .bench_build):
//
//	bash bench/run.sh [-seconds N] [-seed N] [-runs N] [-out FILE] [-label L]
//	bash bench/run.sh -workload NAME -seed N -seconds N -trace 0|1 [-trace-file F]
//	bash bench/run.sh -compare A.json [B.json]
//	go -C bench run . -regen-expected testdata/expected.json
//	go -C bench run . -regen-corpus testdata/corpus.json
//
// With -workload, one workload runs in this process and the last line
// of standard output is its JSON result.  Without it, every workload
// runs in its own re-executed process, so process-wide state (the
// routine-program cache, the flight recorder, the heap) starts empty
// for each, and a summary table follows.  README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eel/internal/toolmain"
)

type workloadDef struct {
	name, why string
	run       func(*runOpts) (*result, error)
}

var workloads = []workloadDef{
	{"edit", "qpt2 over 16 200-routine binaries, cycled uncached: load, CFG, dataflow, snippet placement and layout do all the work, the emulator none", runEdit},
	{"verify", "eeld's verify job in-process on the routine tier, over a seeded draw of 16 pool programs in 4 flavours: emulation does most of the work", verifyWorkload{toolmain.EngineRoutine, 90}.run},
	{"verify-chained", "the same jobs on the chained engine eelprof uses, so that a slower chained engine is held to the bounds on its own", verifyWorkload{toolmain.EngineChained, 80}.run},
	{"eeld-warm", "2 closed-loop clients over 8 120-routine binaries after a warm restart: every routine is a cache hit, so wire, queue and open dominate", eeldWorkload{tail: 98}.run},
	{"eeld-thrash", "the same mix over 16 binaries, both cache tiers bounded below their routine count: every request misses, stores to memory and disk, and evicts", eeldWorkload{thrash: true, tail: 95}.run},
}

// sizes scales the workloads: full for measurement, tiny for the smoke
// test.
type sizes struct {
	setups           int // set-ups per run; setup_s is their median
	editPerCell      int // per personality × stripped cell
	verifyPerFlavour int
	eeldWarm         int           // per personality
	eeldThrash       int           // per personality
	pool             []poolEntry   // verify programs; nil: the embedded pool
	corpus           []corpusEntry // edit and eeld inputs; nil: the embedded pool
}

var fullSize = sizes{setups: 3, editPerCell: 4, verifyPerFlavour: 4, eeldWarm: 4, eeldThrash: 8}

type runOpts struct {
	seed  int64
	phase time.Duration // measured time
	trace bool
	work  string // scratch directory of this process
	size  sizes
	log   *logger
}

// logger writes progress and diagnostics to standard error.
type logger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *logger) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format+"\n", args...)
}

// result collects one workload run's counts, checks and metrics.
type result struct {
	mu                sync.Mutex
	log               *logger
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	notes             []string
	recs              map[string]*recorder
	// slow is the calibrator's slowdown over the measured phase (see
	// calibrate.go); time metrics are divided by it, rates multiplied.
	slow float64
	// raw holds the time metrics as measured, before scaling.
	raw map[string]float64
}

func newResult(o *runOpts) *result {
	return &result{log: o.log, e2e: map[string]float64{}, layer: map[string]float64{}, recs: map[string]*recorder{}, raw: map[string]float64{}}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 100 {
		r.problems = append(r.problems, msg)
	}
}

func (r *result) logf(format string, args ...any) { r.log.printf(format, args...) }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setups runs the workload's set-up o.size.setups times, keeping the
// last, and reports the median duration as setup_s.  Each set-up is
// scaled to reference speed by kernel timings taken just before and
// after it (see calibrate.go).  A collection before each set-up keeps
// the garbage of the previous one from raising the peak memory the run
// reports.
func (r *result) setups(o *runOpts, setup func() error) error {
	var raw, ts []float64
	for i := 0; i < o.size.setups; i++ {
		runtime.GC()
		ks := kernelTimes(calReps)
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		ks = append(ks, kernelTimes(calReps)...)
		raw = append(raw, d)
		ts = append(ts, d/(median(ks)/calRef))
	}
	r.e2e["setup_s"] = median(ts)
	r.raw["setup_s"] = median(raw)
	r.note("setup_s: median of %d set-ups, raw %s", len(ts), fmtList(raw, "%.3fs"))
	runtime.GC()
	return nil
}

// reportLatency sets p50_ms and tail_ms from per-op wall times.  The
// tail is a fixed percentile per workload, chosen so that a run of
// normal length has at least ten samples beyond it.
func (r *result) reportLatency(lat []float64, p float64, what string) {
	n := len(lat)
	r.e2e["p50_ms"] = median(lat)
	r.e2e["tail_ms"] = percentile(lat, p)
	r.note("p50_ms, tail_ms: %s; %d samples, tail is p%g with %d beyond", what, n, p, beyond(n, p))
	if beyond(n, p) < 10 {
		r.note("warning: fewer than 10 samples beyond p%g; with %d samples the tail rule allows p%g", p, n, tailPercentile(n))
	}
}

// traced reports whether op i of a traced run records spans: ops
// alternate between untraced and traced in whole cycles over the
// workload's inputs, so both sides see the same inputs and the same
// machine, and their medians differ only by the tracing.
func traced(rec *recorder, i, cycle int) *recorder {
	if (i/cycle)%2 == 1 {
		return rec
	}
	return nil
}

// overhead reports how much slower the traced ops of a traced run were
// than the untraced ones, by median op time.
func (r *result) overhead(plain, traced []float64) {
	if len(plain) > 0 && len(traced) > 0 {
		r.layer["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
}

// normalize scales the phase's time metrics to reference speed,
// keeping the raw values.
func (r *result) normalize() {
	r.note("calibration: kernel median %.4f ms against %.1f ms reference; raw p50_ms %.4g, tail_ms %.4g, throughput %.6g",
		r.slow*calRef, calRef, r.e2e["p50_ms"], r.e2e["tail_ms"], r.e2e["throughput"])
	for _, k := range []string{"p50_ms", "tail_ms", "throughput"} {
		r.raw[k] = r.e2e[k]
	}
	r.e2e["p50_ms"] /= r.slow
	r.e2e["tail_ms"] /= r.slow
	r.e2e["throughput"] *= r.slow
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// output is the JSON result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload runs one workload in this process and writes the report
// to stderr and the JSON line to stdout.  It returns the exit code.
func runWorkload(w workloadDef, o *runOpts, traceFile string, stdout io.Writer) int {
	o.log.printf("%s: seed %d, %v measured, trace %v", w.name, o.seed, o.phase, o.trace)
	if err := o.loadPools(); err != nil {
		o.log.printf("%s: %v", w.name, err)
		return 1
	}
	r, err := w.run(o)
	if err != nil {
		o.log.printf("%s: %v", w.name, err)
		return 1
	}
	r.e2e["peak_rss_mb"] = peakRSSMiB()
	r.layer["bench.calibration_ms"] = r.slow * calRef
	defs, vals := endToEnd, r.e2e
	if o.trace {
		defs, vals = perLayer, r.layer
	} else {
		r.normalize()
	}
	out := output{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!o.trace && v <= 0) {
			r.problem("%s measured %v", d.Name, v)
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out.Correct = len(r.problems) == 0
	report(o.log, w.name, r, out, defs)
	if traceFile != "" {
		if err := writeTraceFile(traceFile, r.recs); err != nil {
			o.log.printf("%s: writing trace: %v", w.name, err)
			return 1
		}
		o.log.printf("%s: trace written to %s", w.name, traceFile)
	}
	if !o.trace {
		// The unscaled values, for result sets (-runs); the result line
		// stays last.
		raw, err := json.Marshal(r.raw)
		if err != nil {
			o.log.printf("%s: %v", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", rawPrefix, raw)
	}
	line, err := json.Marshal(out)
	if err != nil {
		o.log.printf("%s: %v", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

const rawPrefix = "raw: "

// loadPools fills in the embedded input pools the size leaves unset.
func (o *runOpts) loadPools() error {
	var err error
	if o.size.pool == nil {
		if o.size.pool, err = loadPool(); err != nil {
			return err
		}
	}
	if o.size.corpus == nil {
		o.size.corpus, err = loadCorpusPool()
	}
	return err
}

func writeTraceFile(path string, recs map[string]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(l *logger, name string, r *result, out output, defs []metricDef) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ops attempted, %d failed, checks %s\n", name, out.Attempted, out.Failed,
		map[bool]string{true: "passed", false: "FAILED"}[out.Correct])
	for _, p := range r.problems {
		fmt.Fprintf(&b, "  check failed: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-34s %16.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(r.recs))
	for n := range r.recs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  layers (%s): %-22s %7s %11s %11s %10s %12s\n", n, "span", "count", "total ms", "self ms", "p50 ms", "allocs")
		for _, ls := range r.recs[n].layers() {
			fmt.Fprintf(&b, "    %-40s %7d %11.2f %11.2f %10.3f %12d\n", ls.name, ls.count,
				float64(ls.total)/1e6, float64(ls.self)/1e6, median(ls.durs), ls.allocs)
		}
	}
	l.printf("%s", strings.TrimRight(b.String(), "\n"))
}

// runRecord is one workload run inside a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Output   output `json:"output"`
	// Raw are the run's time metrics before calibration scaling.
	Raw map[string]float64 `json:"raw,omitempty"`
}

// summary is a metric's distribution over a result set's runs, and
// the distribution of its unscaled values where the runs have them.
type summary struct {
	Unit      string  `json:"unit"`
	N         int     `json:"n"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	RawMedian float64 `json:"raw_median,omitempty"`
	RawQ1     float64 `json:"raw_q1,omitempty"`
	RawQ3     float64 `json:"raw_q3,omitempty"`
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

type resultSet struct {
	Label   string                        `json:"label"`
	Seconds float64                       `json:"seconds"`
	Trace   int                           `json:"trace"`
	Runs    []runRecord                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

type resultFile struct {
	Sets []resultSet `json:"sets"`
}

func (s *resultSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if m, ok := r.Output.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func (s *resultSet) rawValues(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if v, ok := r.Raw[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

func (s *resultSet) summarize() {
	s.Summary = map[string]map[string]summary{}
	for _, r := range s.Runs {
		if s.Summary[r.Workload] == nil {
			s.Summary[r.Workload] = map[string]summary{}
		}
		for name, m := range r.Output.Metrics {
			vs := s.values(r.Workload, name)
			q1, _, q3 := quartiles(vs)
			sm := summary{Unit: m.Unit, N: len(vs), Median: median(vs), Q1: q1, Q3: q3}
			if raw := s.rawValues(r.Workload, name); len(raw) > 0 {
				sm.RawQ1, _, sm.RawQ3 = quartiles(raw)
				sm.RawMedian = median(raw)
			}
			s.Summary[r.Workload][name] = sm
		}
	}
}

// runAll runs every workload runs times in child processes (seeds
// seed, seed+1, ...), prints the summary, and appends the result set
// to outPath when given.
func runAll(args runArgs, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	set := resultSet{Label: args.label, Seconds: args.seconds, Trace: args.trace}
	code := 0
	for i := 0; i < args.runs; i++ {
		for _, w := range workloads {
			seed := args.seed + int64(i)
			cargs := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(args.seconds, 'g', -1, 64), "-trace", strconv.Itoa(args.trace), "-work", args.work}
			if args.traceFile != "" {
				cargs = append(cargs, "-trace-file", fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(args.traceFile, ".json"), w.name, seed))
			}
			cmd := exec.Command(self, cargs...)
			cmd.Stderr = stderr
			var buf bytes.Buffer
			cmd.Stdout = &buf
			runErr := cmd.Run()
			rr := runRecord{Workload: w.name, Seed: seed}
			if err := json.Unmarshal(lastLine(buf.Bytes()), &rr.Output); err != nil {
				fmt.Fprintf(stderr, "%s seed %d: no result (%v)\n", w.name, seed, runErr)
				code = 1
				continue
			}
			if runErr != nil {
				code = 1
			}
			if raw := rawLine(buf.Bytes()); raw != nil {
				if err := json.Unmarshal(raw, &rr.Raw); err != nil {
					fmt.Fprintf(stderr, "%s seed %d: %v\n", w.name, seed, err)
					code = 1
				}
			}
			set.Runs = append(set.Runs, rr)
		}
	}
	set.summarize()
	printSummary(stdout, &set)
	if args.out != "" {
		var rf resultFile
		if data, err := os.ReadFile(args.out); err == nil {
			if err := json.Unmarshal(data, &rf); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", args.out, err)
				return 1
			}
		}
		rf.Sets = append(rf.Sets, set)
		data, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(args.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// rawLine returns the JSON of a child's unscaled values, or nil.
func rawLine(b []byte) []byte {
	for _, l := range bytes.Split(b, []byte("\n")) {
		if raw, ok := bytes.CutPrefix(l, []byte(rawPrefix)); ok {
			return raw
		}
	}
	return nil
}

func metricOrder(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// printSummary prints each metric's median and quartiles, its spread
// (quartile distance over the median) and, for scaled time metrics,
// the spread of the unscaled values.
func printSummary(w io.Writer, s *resultSet) {
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %14s %4s %-8s %7s %7s %6s\n", "workload", "metric", "median", "q1", "q3", "n", "unit", "spread", "raw", "bound")
	for _, wl := range workloads {
		for _, d := range metricOrder(s.Trace) {
			sm, ok := s.Summary[wl.name][d.Name]
			if !ok {
				continue
			}
			raw, bound := "-", "-"
			if sm.RawMedian != 0 {
				raw = fmt.Sprintf("%.1f%%", 100*spread(sm.RawQ1, sm.RawMedian, sm.RawQ3))
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %14.6g %4d %-8s %6.1f%% %7s %6s\n", wl.name, d.Name, sm.Median, sm.Q1, sm.Q3, sm.N, sm.Unit,
				100*spread(sm.Q1, sm.Median, sm.Q3), raw, bound)
		}
	}
}

type runArgs struct {
	workload, work, traceFile, out, label string
	seed                                  int64
	seconds                               float64
	trace, runs                           int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eelbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var a runArgs
	fs.StringVar(&a.workload, "workload", "", "run only this workload, in this process")
	fs.Int64Var(&a.seed, "seed", 1, "input seed (the same seed gives the same inputs)")
	fs.Float64Var(&a.seconds, "seconds", 15, "measured time per run, in seconds")
	fs.IntVar(&a.trace, "trace", 0, "1: traced run, reporting per-layer metrics")
	fs.StringVar(&a.traceFile, "trace-file", "", "with -trace 1, write the spans here as Chrome trace JSON")
	fs.IntVar(&a.runs, "runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
	fs.StringVar(&a.out, "out", "", "without -workload: append the result set to this JSON file")
	fs.StringVar(&a.label, "label", time.Now().Format("2006-01-02"), "label of the result set -out appends")
	fs.StringVar(&a.work, "work", ".bench_build/work", "scratch directory for daemon caches")
	cmp := fs.Bool("compare", false, "compare result sets: -compare A.json [B.json]")
	regen := fs.String("regen-expected", "", "rebuild the verify pool's interpreter references into this file")
	regenC := fs.String("regen-corpus", "", "rebuild the edit/eeld input pool into this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	log := &logger{w: stderr}
	switch {
	case *regen != "":
		if err := regenExpected(*regen, log); err != nil {
			log.printf("regen-expected: %v", err)
			return 1
		}
		return 0
	case *regenC != "":
		if err := regenCorpus(*regenC, log); err != nil {
			log.printf("regen-corpus: %v", err)
			return 1
		}
		return 0
	case *cmp:
		return compareFiles(fs.Args(), stdout, stderr)
	case a.workload == "":
		return runAll(a, stdout, stderr)
	}
	if a.trace != 0 && a.trace != 1 {
		log.printf("-trace must be 0 or 1")
		return 2
	}
	for _, w := range workloads {
		if w.name != a.workload {
			continue
		}
		work := filepath.Join(a.work, strconv.Itoa(os.Getpid()))
		if err := os.MkdirAll(work, 0o755); err != nil {
			log.printf("%v", err)
			return 1
		}
		defer os.RemoveAll(work)
		o := &runOpts{seed: a.seed, phase: time.Duration(a.seconds * float64(time.Second)),
			trace: a.trace == 1, work: work, size: fullSize, log: log}
		return runWorkload(w, o, a.traceFile, stdout)
	}
	log.printf("unknown workload %q", a.workload)
	return 2
}
