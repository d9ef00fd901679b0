package eeld

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	_ "eel/internal/aout"
	_ "eel/internal/elf32"

	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/pipeline"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/telemetry"
)

// Config sizes a Server.  The zero value is serviceable: an ephemeral
// port, an in-memory-only cache, and default bounds everywhere.
type Config struct {
	// Addr is the listen address ("" or ":0" picks an ephemeral port).
	Addr string
	// CacheDir, when non-empty, backs the analysis cache with a
	// persistent DiskStore there, so the cache survives restarts.
	CacheDir string
	// CacheEntries / CacheBytes bound the disk store (0 = defaults);
	// MemEntries bounds the in-memory tier.
	CacheEntries int
	CacheBytes   int64
	MemEntries   int
	// Workers is the job-execution pool size (how many requests run
	// concurrently); PipelineWorkers is each job's analysis pool (0 =
	// GOMAXPROCS).  Default Workers is 4.
	Workers         int
	PipelineWorkers int
	// MaxQueue bounds the admission queue (excess submissions get
	// 429); RequestTimeout bounds one request's queue wait plus
	// execution (default 60s).
	MaxQueue       int
	RequestTimeout time.Duration
	// MaxBinaryBytes caps a submitted binary (0 = 16 MiB).
	MaxBinaryBytes int64
	// MaxVerifySteps bounds each verify-job emulator run (0 = 100M).
	MaxVerifySteps uint64
	// Registry receives the daemon's telemetry (nil = the process
	// default registry).
	Registry *telemetry.Registry
	// Tracer receives request/queue/handler spans (nil = the process
	// active tracer, which may itself be nil — spans then cost one
	// branch).
	Tracer *telemetry.Tracer
	// Logger receives one structured line per request (nil = discard).
	Logger *slog.Logger
}

// Server is the eeld daemon: an HTTP front end over the shared
// analysis cache and the weighted-round-robin job scheduler.
type Server struct {
	cfg   Config
	cache *pipeline.Cache
	disk  *pipeline.DiskStore
	sched *sched
	reg   *telemetry.Registry
	log   *slog.Logger

	requests, completed, failed *telemetry.Counter
	rejected, timeouts          *telemetry.Counter
	latency                     *telemetry.Histogram
	bytesRewritten              *telemetry.Counter

	mux      *http.ServeMux
	listener net.Listener
	httpSrv  *http.Server

	mu       sync.Mutex
	draining bool
	workerWG sync.WaitGroup
	serveErr chan error
}

// New builds a Server (opening the disk store when CacheDir is set)
// and starts its execution workers; call Start to listen, or wire
// Handler into a test server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxBinaryBytes <= 0 {
		cfg.MaxBinaryBytes = DefaultMaxBinaryBytes
	}
	if cfg.MaxVerifySteps == 0 {
		cfg.MaxVerifySteps = 100_000_000
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	if reg == nil {
		// /v1/stats reads these counters back, so the daemon always
		// keeps a live registry even when process telemetry is off.
		reg = telemetry.New()
	}
	s := &Server{
		cfg:            cfg,
		cache:          pipeline.NewCache(cfg.MemEntries),
		sched:          newSched(cfg.MaxQueue),
		reg:            reg,
		requests:       reg.Counter("eeld.requests"),
		completed:      reg.Counter("eeld.completed"),
		failed:         reg.Counter("eeld.failed"),
		rejected:       reg.Counter("eeld.rejected"),
		timeouts:       reg.Counter("eeld.timeouts"),
		latency:        reg.Histogram("eeld.latency_ns"),
		bytesRewritten: reg.Counter("eeld.bytes_rewritten"),
		serveErr:       make(chan error, 1),
	}
	if cfg.Logger != nil {
		s.log = cfg.Logger
	} else {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// The flight recorder is always on in the daemon: when a request
	// goes sideways, the last few thousand notable events (deopts,
	// invalidations, admission rejects, corrupt cache drops) are the
	// story, and they are only there if recording never stopped.
	if obs.ActiveFlight() == nil {
		obs.EnableFlight(0)
	}
	if cfg.CacheDir != "" {
		disk, err := pipeline.OpenDiskStore(cfg.CacheDir, cfg.CacheEntries, cfg.CacheBytes)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.cache.SetBackend(disk)
	}
	reg.GaugeFunc("eeld.queue_depth", func() int64 { return int64(s.sched.depth()) })
	reg.GaugeFunc("eeld.cache.mem_entries", func() int64 { return int64(s.cache.Len()) })
	if s.disk != nil {
		reg.GaugeFunc("eeld.cache.disk_entries", func() int64 { return int64(s.disk.Len()) })
		reg.GaugeFunc("eeld.cache.disk_bytes", func() int64 { return s.disk.Bytes() })
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", obs.MetricsHandler(s.reg))
	s.mux.Handle("/debug/flight", obs.FlightHandler())
	s.mux.HandleFunc("/v1/analyze", s.job(s.runAnalyze))
	s.mux.HandleFunc("/v1/instrument", s.job(s.runInstrument))
	s.mux.HandleFunc("/v1/verify", s.job(s.runVerify))

	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for {
				job, ok := s.sched.next()
				if !ok {
					return
				}
				job()
				s.sched.done()
			}
		}()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's telemetry registry — what /metrics
// serves.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

func (s *Server) tracer() *telemetry.Tracer {
	if s.cfg.Tracer != nil {
		return s.cfg.Tracer
	}
	return telemetry.ActiveTracer()
}

// Start listens on the configured address and serves until Drain.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// ServeErr reports an asynchronous Serve failure, if any.
func (s *Server) ServeErr() <-chan error { return s.serveErr }

// Drain performs the graceful shutdown a SIGTERM asks for: stop
// admitting jobs (new submissions get 503), let queued and in-flight
// jobs finish, stop the workers, then close the HTTP server.  The
// disk store needs no close — every segment write is atomic.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.sched.drain()
		s.workerWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// StatsResponse is /v1/stats's body: daemon counters plus both cache
// tiers' lifetime numbers.
type StatsResponse struct {
	Requests  uint64 `json:"requests"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Timeouts  uint64 `json:"timeouts"`
	Queue     int    `json:"queue_depth"`
	Draining  bool   `json:"draining"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheEntries   int    `json:"cache_entries"`

	DiskEntries   int    `json:"disk_entries,omitempty"`
	DiskBytes     int64  `json:"disk_bytes,omitempty"`
	DiskLoads     uint64 `json:"disk_loads,omitempty"`
	DiskLoadHits  uint64 `json:"disk_load_hits,omitempty"`
	DiskStores    uint64 `json:"disk_stores,omitempty"`
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`
	DiskCorrupt   uint64 `json:"disk_corrupt,omitempty"`

	BytesRewritten uint64 `json:"bytes_rewritten"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats reports the daemon's request and cache counters, as served
// at /v1/stats.
func (s *Server) Stats() StatsResponse {
	hits, misses, evictions := s.cache.Counters()
	resp := StatsResponse{
		Requests:       s.requests.Value(),
		Completed:      s.completed.Value(),
		Failed:         s.failed.Value(),
		Rejected:       s.rejected.Value(),
		Timeouts:       s.timeouts.Value(),
		Queue:          s.sched.depth(),
		Draining:       s.isDraining(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		CacheEntries:   s.cache.Len(),
		BytesRewritten: s.bytesRewritten.Value(),
	}
	if s.disk != nil {
		c := s.disk.Counters()
		resp.DiskEntries = s.disk.Len()
		resp.DiskBytes = s.disk.Bytes()
		resp.DiskLoads = c.Loads
		resp.DiskLoadHits = c.LoadHits
		resp.DiskStores = c.Stores
		resp.DiskEvictions = c.Evictions
		resp.DiskCorrupt = c.Corrupt
	}
	return resp
}

// runner executes one decoded request and returns its response value.
type runner func(ctx context.Context, r *http.Request) (any, error)

// reqSummary is the per-request span summary returned in response
// headers and logged per request.
type reqSummary struct {
	cacheHits      uint64
	cacheMisses    uint64
	bytesRewritten int
}

// summarize pulls the span-summary fields out of a runner's response.
func summarize(resp any) (sum reqSummary) {
	switch v := resp.(type) {
	case *AnalyzeResponse:
		sum.cacheHits = v.Cache.Hits + v.Cache.DiskHits
		sum.cacheMisses = v.Cache.Misses
	case *InstrumentResponse:
		sum.cacheHits = v.Cache.Hits + v.Cache.DiskHits
		sum.cacheMisses = v.Cache.Misses
		sum.bytesRewritten = len(v.Binary)
	case *VerifyResponse:
		sum.cacheHits = v.Cache.Hits + v.Cache.DiskHits
		sum.cacheMisses = v.Cache.Misses
	}
	return sum
}

// Summary response headers, the lightweight alternative to a trace
// viewer: every reply says where its time went.
const (
	HeaderQueueNS        = "X-Eel-Queue-Ns"
	HeaderRunNS          = "X-Eel-Run-Ns"
	HeaderCacheHits      = "X-Eel-Cache-Hits"
	HeaderCacheMisses    = "X-Eel-Cache-Misses"
	HeaderBytesRewritten = "X-Eel-Bytes-Rewritten"
)

func setSummaryHeaders(h http.Header, queueNS, runNS int64, sum reqSummary) {
	h.Set(HeaderQueueNS, strconv.FormatInt(queueNS, 10))
	h.Set(HeaderRunNS, strconv.FormatInt(runNS, 10))
	h.Set(HeaderCacheHits, strconv.FormatUint(sum.cacheHits, 10))
	h.Set(HeaderCacheMisses, strconv.FormatUint(sum.cacheMisses, 10))
	h.Set(HeaderBytesRewritten, strconv.Itoa(sum.bytesRewritten))
}

// job wraps a runner with the daemon's admission control: strict
// method check, client identification, bounded-queue submission with
// weighted round robin, a request timeout spanning queue wait plus
// execution, and uniform error mapping.  It also owns the request's
// observability: the trace is continued (or minted) here, spans cover
// admission, queue wait, and handler execution, and every reply
// carries the X-Eel-Trace plus span-summary headers.
func (s *Server) job(run runner) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.requests.Add(1)

		// Continue the caller's trace or mint a fresh one, and echo
		// the (possibly new) context back immediately — even rejects
		// are correlatable.
		sc, ok := obs.ParseSpanContext(r.Header.Get(obs.TraceHeader))
		if ok {
			sc = sc.Child()
		} else {
			sc = obs.NewSpanContext()
		}
		w.Header().Set(obs.TraceHeader, sc.String())

		tr := s.tracer()
		reqSpan := tr.Begin("eeld.request", "eeld")
		reqSpan.Arg("trace", sc.TraceID())
		reqSpan.Arg("path", r.URL.Path)

		if s.isDraining() {
			s.reject(w, r, sc, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		client := r.Header.Get("X-Eel-Client")
		if client == "" {
			client = "anon"
		}
		weight := 1
		if h := r.Header.Get("X-Eel-Weight"); h != "" {
			if v, err := strconv.Atoi(h); err == nil {
				weight = v
			}
		}
		reqSpan.Arg("client", client)

		ctx, cancel := context.WithTimeout(obs.ContextWith(r.Context(), sc), s.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()

		type outcome struct {
			resp    any
			err     error
			queueNS int64
			runNS   int64
		}
		done := make(chan outcome, 1)
		queueSpan := tr.Begin("eeld.queue", "eeld")
		queueSpan.Arg("trace", sc.TraceID())
		queueSpan.Arg("client", client)
		err := s.sched.submit(client, weight, func() {
			queueNS := time.Since(start).Nanoseconds()
			queueSpan.End()
			// The request may have timed out or disconnected while
			// queued; don't burn a worker on it.
			if ctx.Err() != nil {
				done <- outcome{err: ctx.Err(), queueNS: queueNS}
				return
			}
			handlerSpan := tr.Begin("eeld.handler", "eeld")
			handlerSpan.Arg("trace", sc.TraceID())
			handlerSpan.Arg("path", r.URL.Path)
			runStart := time.Now()
			resp, err := run(ctx, r)
			handlerSpan.End()
			done <- outcome{resp: resp, err: err, queueNS: queueNS, runNS: time.Since(runStart).Nanoseconds()}
		})
		if err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, ErrQueueFull) {
				status = http.StatusTooManyRequests
			}
			s.reject(w, r, sc, status, err)
			return
		}

		var out outcome
		select {
		case out = <-done:
		case <-ctx.Done():
			// The job func checks ctx before running, so an expired
			// request left in the queue completes as a no-op.
			out = outcome{err: ctx.Err(), queueNS: time.Since(start).Nanoseconds()}
		}
		// Observe queue wait + handler run — the same interval the
		// summary headers report — rather than time.Since(start): the
		// latter also counts the done-channel wakeup, which under CPU
		// contention adds tens of ms of goroutine scheduling delay that
		// no client-visible measurement contains, skewing the
		// histogram's percentiles away from the exact ones.
		s.latency.Observe(uint64(out.queueNS + out.runNS))
		sum := summarize(out.resp)
		setSummaryHeaders(w.Header(), out.queueNS, out.runNS, sum)
		status := http.StatusOK
		if out.err != nil {
			status = s.writeRunError(w, out.err)
		} else {
			s.completed.Add(1)
			writeJSON(w, http.StatusOK, out.resp)
		}
		reqSpan.Arg("status", status)
		reqSpan.Arg("queue_ns", out.queueNS)
		reqSpan.Arg("cache_hits", sum.cacheHits)
		reqSpan.End()
		s.log.Info("eeld.request",
			"trace", sc.TraceID(), "client", client, "path", r.URL.Path,
			"status", status, "queue_ns", out.queueNS, "run_ns", out.runNS,
			"cache_hits", sum.cacheHits, "cache_misses", sum.cacheMisses,
			"bytes_rewritten", sum.bytesRewritten)
	}
}

// reject refuses a request at admission (draining, queue full) with
// the matching counter, flight event, and log line.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, sc obs.SpanContext, status int, err error) {
	s.rejected.Add(1)
	obs.Record(obs.EvAdmissionReject, uint64(status), uint64(s.sched.depth()))
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
	s.log.Warn("eeld.reject",
		"trace", sc.TraceID(), "path", r.URL.Path, "status", status, "err", err.Error())
}

func (s *Server) writeRunError(w http.ResponseWriter, err error) int {
	s.failed.Add(1)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "request timed out"})
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "request canceled"})
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: err.Error()})
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return http.StatusBadRequest
	default:
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return http.StatusUnprocessableEntity
	}
}

// open parses and loads a submitted binary.
func (s *Server) open(binary []byte) (*core.Executable, error) {
	f, err := binfile.Read(binary)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	e, err := core.NewExecutable(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := e.ReadContents(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return e, nil
}

func cacheStats(st pipeline.Stats) CacheStats {
	return CacheStats{
		Hits:      st.CacheHits,
		DiskHits:  st.CacheDiskHits,
		Misses:    st.CacheMisses,
		Evictions: st.CacheEvictions,
		HitRate:   st.CacheHitRate(),
	}
}

func (s *Server) runAnalyze(ctx context.Context, r *http.Request) (any, error) {
	req, err := DecodeAnalyzeRequest(r.Body, s.cfg.MaxBinaryBytes)
	if err != nil {
		return nil, err
	}
	e, err := s.open(req.Binary)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := pipeline.AnalyzeAll(e, pipeline.Options{
		Workers:      s.cfg.PipelineWorkers,
		Cache:        s.cache,
		NoLiveness:   req.NoLiveness,
		NoDominators: req.NoDominators,
		NoLoops:      req.NoLoops,
		Telemetry:    s.reg,
		Tracer:       s.tracer(),
		TraceTag:     obs.FromContext(ctx).TraceID(),
	})
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{
		Routines: res.Stats.Routines,
		Hidden:   res.Stats.Hidden,
		Errors:   res.Stats.Errors,
		WallNS:   time.Since(start).Nanoseconds(),
		Cache:    cacheStats(res.Stats),
	}
	for _, a := range res.Analyses {
		info := RoutineInfo{
			Name:   a.Routine.Name,
			Start:  a.Routine.Start,
			End:    a.Routine.End,
			Hidden: a.Routine.Hidden,
		}
		if a.Err != nil {
			info.Error = a.Err.Error()
		} else {
			info.Blocks = len(a.Graph.Blocks)
			info.Edges = len(a.Graph.Edges)
			info.Loops = len(a.Loops)
		}
		resp.List = append(resp.List, info)
	}
	return resp, nil
}

// instrumentCommon analyzes and instruments a binary, returning the
// edited container bytes plus counts.  verify reuses it.
func (s *Server) instrumentCommon(ctx context.Context, e *core.Executable, mode qpt.Mode) (*binfile.File, *qpt.Result, pipeline.Stats, error) {
	qpt.Configure(e, mode)
	res, err := pipeline.AnalyzeAll(e, pipeline.Options{
		Workers:      s.cfg.PipelineWorkers,
		Cache:        s.cache,
		NoDominators: true,
		NoLoops:      true,
		Telemetry:    s.reg,
		Tracer:       s.tracer(),
		TraceTag:     obs.FromContext(ctx).TraceID(),
	})
	if err != nil {
		return nil, nil, pipeline.Stats{}, err
	}
	qres, err := qpt.Instrument(e, mode)
	if err != nil {
		return nil, nil, res.Stats, err
	}
	edited, err := e.BuildEdited()
	if err != nil {
		return nil, nil, res.Stats, err
	}
	return edited, qres, res.Stats, nil
}

func (s *Server) runInstrument(ctx context.Context, r *http.Request) (any, error) {
	req, err := DecodeInstrumentRequest(r.Body, s.cfg.MaxBinaryBytes)
	if err != nil {
		return nil, err
	}
	mode := qpt.Full
	if req.Mode == "light" {
		mode = qpt.Light
	}
	e, err := s.open(req.Binary)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	edited, qres, st, err := s.instrumentCommon(ctx, e, mode)
	if err != nil {
		return nil, err
	}
	out, err := binfile.Write(edited)
	if err != nil {
		return nil, err
	}
	s.bytesRewritten.Add(uint64(len(out)))
	return &InstrumentResponse{
		Binary:   out,
		Routines: qres.RoutinesSeen,
		Hidden:   qres.HiddenSeen,
		Counters: len(qres.Counters),
		WallNS:   time.Since(start).Nanoseconds(),
		Cache:    cacheStats(st),
	}, nil
}

func (s *Server) runVerify(ctx context.Context, r *http.Request) (any, error) {
	req, err := DecodeVerifyRequest(r.Body, s.cfg.MaxBinaryBytes)
	if err != nil {
		return nil, err
	}
	maxSteps := req.MaxSteps
	if maxSteps == 0 || maxSteps > s.cfg.MaxVerifySteps {
		maxSteps = s.cfg.MaxVerifySteps
	}
	orig, err := binfile.Read(req.Binary)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	e, err := s.open(req.Binary)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	edited, qres, st, err := s.instrumentCommon(ctx, e, qpt.Full)
	if err != nil {
		return nil, err
	}

	runOne := func(f *binfile.File) (*sim.CPU, []byte, error) {
		var out bytes.Buffer
		cpu := sim.LoadFile(f, &out)
		// Verify jobs run on the routine tier with synchronous
		// promotion at threshold 1: maximum coverage of the engine the
		// daemon fronts, deterministic compile points, and
		// tier-promotion/deopt events landing in the flight recorder.
		// The threshold must be 1 for self-modifying inputs: their
		// stores invalidate installed programs and reset heat, so any
		// higher threshold never re-reaches the routine tier between
		// invalidations and the deopt path goes unexercised.
		cpu.Engine = sim.EngineRoutine
		cpu.RoutineSync = true
		cpu.RoutineHotThreshold = 1
		if err := cpu.Run(maxSteps); err != nil {
			return nil, nil, err
		}
		if !cpu.Halted {
			return nil, nil, fmt.Errorf("program did not halt within %d steps", maxSteps)
		}
		return cpu, out.Bytes(), nil
	}
	oCPU, oOut, err := runOne(orig)
	if err != nil {
		return nil, fmt.Errorf("original: %w", err)
	}
	eCPU, eOut, err := runOne(edited)
	if err != nil {
		return nil, fmt.Errorf("edited: %w", err)
	}

	resp := &VerifyResponse{
		OrigExit:     oCPU.ExitCode,
		EditedExit:   eCPU.ExitCode,
		OrigInsts:    oCPU.InstCount,
		EditedInsts:  eCPU.InstCount,
		OutputEqual:  bytes.Equal(oOut, eOut),
		OutputBytes:  len(oOut),
		WallNS:       time.Since(start).Nanoseconds(),
		Cache:        cacheStats(st),
		Instrumented: qres.RoutinesSeen,
	}
	resp.OK = resp.OrigExit == resp.EditedExit && resp.OutputEqual
	if !resp.OK {
		resp.Divergence = fmt.Sprintf("exit %d vs %d, output equal %v",
			resp.OrigExit, resp.EditedExit, resp.OutputEqual)
	}
	return resp, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
