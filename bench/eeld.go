package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eel/internal/eeld"
)

// eeldClients is the closed-loop client count: tool and CI callers
// that each wait for their reply, no more of them than the 2-core
// machine the benchmark is sized for has cores.
const eeldClients = 2

// eeldWorkload is one traffic mix against an in-process daemon.
type eeldWorkload struct {
	// thrash bounds both cache tiers below the corpus's routine count,
	// so cyclic access misses, stores and evicts on every request.
	thrash bool
	// tail is the percentile reported as tail_ms.
	tail float64
}

// eeldState is a daemon ready for the measured phase.
type eeldState struct {
	files   []*corpusFile
	refused []refused
	dir     string
	srv     *eeld.Server
	hc      *http.Client
	restart time.Duration // set-up's warm-up pass (disk-served after a warm restart)
}

func startDaemon(cfg eeld.Config) (*eeld.Server, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := eeld.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		stopDaemon(srv)
		return nil, err
	}
	return srv, nil
}

func stopDaemon(srv *eeld.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Drain(ctx)
}

func (s *eeldState) close() error {
	if s == nil {
		return nil
	}
	s.hc.CloseIdleConnections()
	var err error
	if s.srv != nil {
		err = stopDaemon(s.srv)
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

func (s *eeldState) client(name string) *eeld.Client {
	return &eeld.Client{Base: "http://" + s.srv.Addr(), Name: name, HTTP: s.hc}
}

// pass analyzes every corpus binary once, in order.
func (s *eeldState) pass() error {
	c := s.client("bench-setup")
	for _, f := range s.files {
		if _, err := c.Analyze(context.Background(), &eeld.AnalyzeRequest{Binary: f.in.bytes}); err != nil {
			return fmt.Errorf("%v: %w", f.in, err)
		}
	}
	return nil
}

// setup generates the corpus and its reference edits, then brings up
// the daemon the phase measures.  Warm: a first daemon fills a fresh
// cache directory and drains; a second daemon restarts on it, and its
// first, disk-served pass is warm-up.  Thrash: one daemon whose memory
// tier holds a quarter and whose disk tier half of the corpus's
// routines, warmed by one pass.
func (w eeldWorkload) setup(o *runOpts, k int) (*eeldState, error) {
	perCell := o.size.eeldWarm
	if w.thrash {
		perCell = o.size.eeldThrash
	}
	entries, err := drawCorpus(o.size.corpus, "eeld", perCell, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, err
	}
	files, bad, err := buildCorpus(entries, o.log)
	if err != nil {
		return nil, err
	}
	s := &eeldState{
		files:   files,
		refused: bad,
		dir:     filepath.Join(o.work, fmt.Sprintf("eeld-cache-%d", k)),
		hc:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: eeldClients, MaxIdleConnsPerHost: eeldClients}},
	}
	fail := func(err error) (*eeldState, error) {
		s.close()
		return nil, err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return fail(err)
	}
	cfg := eeld.Config{CacheDir: s.dir}
	if w.thrash {
		n := corpusRoutines(files)
		cfg.MemEntries, cfg.CacheEntries = n/4, n/2
	}
	if s.srv, err = startDaemon(cfg); err != nil {
		return fail(err)
	}
	if !w.thrash {
		if err := s.pass(); err != nil {
			return fail(err)
		}
		first := s.srv
		s.srv = nil
		if err := stopDaemon(first); err != nil {
			return fail(err)
		}
		if s.srv, err = startDaemon(cfg); err != nil {
			return fail(err)
		}
	}
	t0 := time.Now()
	if err := s.pass(); err != nil {
		return fail(err)
	}
	s.restart = time.Since(t0)
	return s, nil
}

// eeldReq is one request as the client saw it.
type eeldReq struct {
	instrument, traced     bool
	client, queue, run, wk float64 // ms
	cache                  eeld.CacheStats
}

// phase drives the daemon with closed-loop clients until d elapses.
// Each client walks the corpus cyclically from its own offset, sending
// two analyze requests to every instrument request, and checks each
// reply against the reference edit; with a recorder, every other cycle
// is traced.  It returns the completed requests and the calibrator's
// slowdown.
func (s *eeldState) phase(d time.Duration, rec *recorder, r *result) ([]eeldReq, float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var reqs []eeldReq
	cal := startCalibrator()
	deadline := time.Now().Add(d)
	for ci := 0; ci < eeldClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var sum eeld.RequestSummary
			c := s.client(fmt.Sprintf("bench-%d", ci))
			c.OnSummary = func(rs eeld.RequestSummary) { sum = rs }
			var mine []eeldReq
			attempted, failed := 0, 0
			for i := 0; time.Now().Before(deadline); i++ {
				f := s.files[(ci*len(s.files)/eeldClients+i)%len(s.files)]
				q := eeldReq{instrument: i%3 == 2}
				opRec := traced(rec, i, len(s.files))
				q.traced = opRec != nil
				attempted++
				var err error
				cal.op(func() { err = q.send(c, f, opRec, ci+1, r) })
				if err != nil {
					failed++
					r.logf("eeld request failed: %v: %v", f.in, err)
					continue
				}
				q.queue, q.run = float64(sum.QueueNS)/1e6, float64(sum.RunNS)/1e6
				mine = append(mine, q)
			}
			mu.Lock()
			defer mu.Unlock()
			reqs = append(reqs, mine...)
			r.attempted += attempted
			r.failed += failed
		}(ci)
	}
	wg.Wait()
	return reqs, cal.finish()
}

// send makes the request q describes for f and checks the reply: an
// instrument reply must carry exactly the in-process edit's bytes, an
// analyze reply the in-process routine count.
func (q *eeldReq) send(c *eeld.Client, f *corpusFile, rec *recorder, track int, r *result) error {
	ctx := context.Background()
	name := "eeld.analyze"
	if q.instrument {
		name = "eeld.instrument"
	}
	op := rec.root(name, track)
	defer rec.end(op)
	t0 := time.Now()
	defer func() { q.client = float64(time.Since(t0)) / 1e6 }()
	if q.instrument {
		resp, err := c.Instrument(ctx, &eeld.InstrumentRequest{Binary: f.in.bytes})
		if err != nil {
			return err
		}
		q.wk, q.cache = float64(resp.WallNS)/1e6, resp.Cache
		if got := shaHex(resp.Binary); got != f.sha {
			r.problem("%v: instrument reply differs from the in-process edit (sha %.12s vs %.12s)", f.in, got, f.sha)
		}
		return nil
	}
	resp, err := c.Analyze(ctx, &eeld.AnalyzeRequest{Binary: f.in.bytes})
	if err != nil {
		return err
	}
	q.wk, q.cache = float64(resp.WallNS)/1e6, resp.Cache
	if resp.Routines != f.edit.analyzed || resp.Errors != f.edit.errors {
		r.problem("%v: analyze reply has %d routines (%d errors), in-process analysis %d (%d)",
			f.in, resp.Routines, resp.Errors, f.edit.analyzed, f.edit.errors)
	}
	return nil
}

func (w eeldWorkload) run(o *runOpts) (*result, error) {
	r := newResult(o)
	var st *eeldState
	k := 0
	err := r.setups(o, func() error {
		if err := st.close(); err != nil {
			return err
		}
		k++
		var err error
		st, err = w.setup(o, k)
		return err
	})
	if err != nil {
		st.close()
		return nil, err
	}
	r.refusals(st.refused)
	var rec *recorder
	var before *eeld.StatsResponse
	stats := st.client("bench-stats")
	if o.trace {
		rec = newRecorder(false)
		r.recs["eeld requests"] = rec
		if before, err = stats.Stats(context.Background()); err != nil {
			st.close()
			return nil, err
		}
	}
	all, slow := st.phase(o.phase, rec, r)
	r.slow = slow
	var reqs, tracedReqs []eeldReq
	for _, q := range all {
		if q.traced {
			tracedReqs = append(tracedReqs, q)
		} else {
			reqs = append(reqs, q)
		}
	}
	latency := func(q eeldReq) float64 { return q.client }
	lat := field(reqs, latency)
	r.reportLatency(lat, w.tail, "per request, client side, socket to socket")
	// A closed loop without think time completes clients/mean-latency
	// requests per second (Little's law); the calibration pauses are
	// left out that way.
	var sum float64
	for _, l := range lat {
		sum += l
	}
	r.e2e["throughput"] = float64(eeldClients*len(lat)) / (sum / 1e3)
	r.note("throughput: completed requests per second, %d closed-loop clients", eeldClients)
	if o.trace {
		after, err := stats.Stats(context.Background())
		if err != nil {
			st.close()
			return nil, err
		}
		r.overhead(lat, field(tracedReqs, latency))
		eeldLayers(all, before, after, st.restart, r)
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	return r, r.finishCorpus(o, st.files)
}

func field(reqs []eeldReq, f func(eeldReq) float64) []float64 {
	out := make([]float64, 0, len(reqs))
	for _, q := range reqs {
		out = append(out, f(q))
	}
	return out
}

// eeldLayers splits request time by where the daemon says it went: the
// X-Eel-Queue-Ns/X-Eel-Run-Ns reply headers, the handler's own WallNS,
// and the client's clock.
func eeldLayers(reqs []eeldReq, before, after *eeld.StatsResponse, restart time.Duration, r *result) {
	queue := field(reqs, func(q eeldReq) float64 { return q.queue })
	run := field(reqs, func(q eeldReq) float64 { return q.run })
	transport := field(reqs, func(q eeldReq) float64 { return q.client - q.queue - q.run })
	r.layer["eeld.queue_ms.p50"] = percentile(queue, 50)
	r.layer["eeld.queue_ms.p99"] = percentile(queue, 99)
	r.layer["eeld.run_ms.p50"] = percentile(run, 50)
	r.layer["eeld.run_ms.p99"] = percentile(run, 99)
	r.layer["eeld.work_ms.p50"] = median(field(reqs, func(q eeldReq) float64 { return q.wk }))
	r.layer["eeld.decode_open_ms.p50"] = median(field(reqs, func(q eeldReq) float64 { return q.run - q.wk }))
	r.layer["eeld.transport_ms.p50"] = percentile(transport, 50)
	r.layer["eeld.transport_ms.p99"] = percentile(transport, 99)
	var an, in []float64
	var hits, misses, disk, evict float64
	for _, q := range reqs {
		if q.instrument {
			in = append(in, q.run)
		} else {
			an = append(an, q.run)
		}
		hits += float64(q.cache.Hits)
		misses += float64(q.cache.Misses)
		disk += float64(q.cache.DiskHits)
		evict += float64(q.cache.Evictions)
	}
	n := float64(len(reqs))
	r.layer["eeld.analyze_run_ms.p50"] = median(an)
	r.layer["eeld.instrument_run_ms.p50"] = median(in)
	if hits+misses > 0 {
		r.layer["pipeline.cache.hit_rate"] = hits / (hits + misses)
	}
	if n > 0 {
		r.layer["pipeline.cache.disk_hits"] = disk / n
		r.layer["pipeline.cache.evictions"] = evict / n
		r.layer["pipeline.disk.stores"] = float64(after.DiskStores-before.DiskStores) / n
		r.layer["pipeline.disk.evictions"] = float64(after.DiskEvictions-before.DiskEvictions) / n
	}
	r.layer["eeld.restart_pass_ms"] = float64(restart) / 1e6
}
