// Command eelload is the load-test harness for the eeld daemon.  It
// generates a corpus of progen binaries, starts an in-process daemon
// on a persistent cache directory, and drives it with many concurrent
// clients mixing analyze and instrument requests.  It then drains the
// daemon, restarts a fresh one on the same directory, and replays the
// workload — the warm phase measures how much of the corpus the
// persistent per-routine cache serves without re-analysis.
//
// Exact client-side latency percentiles (p50/p99), per-phase cache
// hit rates, and bytes-rewritten/sec are printed and written as JSON
// to -out (BENCH_eeld.json by default).  -min-warm-hit turns the
// warm-phase hit rate into an exit-status check for CI.
//
// With -server the harness instead targets an external daemon and
// runs a single phase (no restart, since it can't restart a daemon it
// doesn't own).  -stats prints the target daemon's final request and
// cache counters.
//
// Usage:
//
//	eelload [-clients N] [-requests N] [-corpus N] [-routines N]
//	        [-cache-dir DIR] [-out FILE] [-min-warm-hit RATE]
//	        [-seed N] [-workers N] [-server URL]
//	        [-stats] [-metrics] [-trace FILE] [-debug-addr ADDR]
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"flag"

	"eel/internal/binfile"
	"eel/internal/eeld"
	"eel/internal/obs"
	"eel/internal/progen"
	"eel/internal/telemetry"
)

type phaseResult struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	WallMS   float64 `json:"wall_ms"`
	RPS      float64 `json:"requests_per_sec"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	// SrvP50MS/SrvP99MS are exact percentiles of the server-side
	// queue+run time each response reports in its summary headers —
	// the interval the daemon's eeld.latency_ns histogram observes
	// (client wall time above also includes HTTP transport queuing).
	SrvP50MS float64 `json:"srv_p50_ms,omitempty"`
	SrvP99MS float64 `json:"srv_p99_ms,omitempty"`
	// P50EstMS/P99EstMS are the same server-side percentiles estimated
	// from that histogram (what a /metrics scrape derives); they must
	// agree with the exact SrvP* ones to within one log-scale bucket.
	// Zero in external -server mode.
	P50EstMS float64 `json:"p50_est_ms,omitempty"`
	P99EstMS float64 `json:"p99_est_ms,omitempty"`
	Hits     uint64  `json:"cache_hits"`
	DiskHits uint64  `json:"cache_disk_hits"`
	Misses   uint64  `json:"cache_misses"`
	HitRate  float64 `json:"hit_rate"`
}

// estimatePercentiles fills a phase's histogram-estimated p50/p99
// from the daemon's request-latency histogram and cross-checks them
// against the exact server-side percentiles: both summarize the same
// per-request durations, so they must land within one log-scale
// bucket of each other.  Returns false on disagreement.
func estimatePercentiles(ph *phaseResult, reg *telemetry.Registry) bool {
	h := reg.Snapshot().Histograms["eeld.latency_ns"]
	if h.Count == 0 {
		return true
	}
	ph.P50EstMS = float64(h.Quantile(0.50)) / 1e6
	ph.P99EstMS = float64(h.Quantile(0.99)) / 1e6

	ok := true
	for _, c := range []struct {
		name       string
		est, exact float64
	}{
		{"p50", ph.P50EstMS, ph.SrvP50MS},
		{"p99", ph.P99EstMS, ph.SrvP99MS},
	} {
		eb := telemetry.BucketIndex(uint64(c.est * 1e6))
		xb := telemetry.BucketIndex(uint64(c.exact * 1e6))
		if d := eb - xb; d < -1 || d > 1 {
			fmt.Fprintf(os.Stderr,
				"eelload: %s disagreement: histogram estimate %.2fms (bucket %d) vs exact server-side %.2fms (bucket %d)\n",
				c.name, c.est, eb, c.exact, xb)
			ok = false
		}
	}
	return ok
}

type benchResult struct {
	Bench    string `json:"bench"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests_per_client"`
	Corpus   int    `json:"corpus"`
	Routines int    `json:"routines"`

	Cold *phaseResult `json:"cold,omitempty"`
	Warm *phaseResult `json:"warm,omitempty"`

	WarmHitRate          float64 `json:"warm_hit_rate"`
	BytesRewritten       uint64  `json:"bytes_rewritten"`
	BytesRewrittenPerSec float64 `json:"bytes_rewritten_per_sec"`
}

func main() {
	clients := flag.Int("clients", 32, "concurrent clients")
	requests := flag.Int("requests", 6, "requests per client per phase")
	corpus := flag.Int("corpus", 8, "progen binaries in the corpus")
	routines := flag.Int("routines", 24, "routines per generated binary")
	seed := flag.Int64("seed", 1, "base progen seed")
	cacheDir := flag.String("cache-dir", "", "persistent cache directory (empty = a temp dir)")
	out := flag.String("out", "BENCH_eeld.json", "JSON results path")
	minWarmHit := flag.Float64("min-warm-hit", 0, "fail unless the warm-phase hit rate reaches this")
	workers := flag.Int("workers", 0, "daemon job executors (0 = default)")
	queue := flag.Int("queue", 4096, "daemon admission queue bound")
	server := flag.String("server", "", "target an external daemon instead of in-process restart mode")
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer stop()

	bins := make([][]byte, *corpus)
	for i := range bins {
		cfg := progen.DefaultConfig(*seed + int64(i))
		cfg.Routines = *routines
		p, err := progen.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		if bins[i], err = binfile.Write(p.File); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "eelload: corpus of %d binaries, %d routines each\n", *corpus, *routines)

	res := benchResult{
		Bench:    "eeld",
		Clients:  *clients,
		Requests: *requests,
		Corpus:   *corpus,
		Routines: *routines,
	}

	agree := true
	var st *eeld.StatsResponse
	if *server != "" {
		// External daemon: one phase, no restart.
		warm := drive(*server, bins, *clients, *requests)
		res.Warm = &warm
		res.WarmHitRate = warm.HitRate
		if of.Stats {
			if st, err = (&eeld.Client{Base: *server, Name: "eelload"}).Stats(context.Background()); err != nil {
				fatal(err)
			}
		}
	} else {
		dir := *cacheDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "eelload-cache-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		cfg := eeld.Config{
			CacheDir: dir,
			Workers:  *workers,
			MaxQueue: *queue,
		}

		srv1 := startDaemon(cfg)
		cold := drive("http://"+srv1.Addr(), bins, *clients, *requests)
		agree = estimatePercentiles(&cold, srv1.Registry())
		res.Cold = &cold
		drain(srv1)

		// Fresh daemon, empty memory tier, same disk store: the warm
		// phase is the tentpole's warm-restart measurement.
		srv2 := startDaemon(cfg)
		warmStart := time.Now()
		warm := drive("http://"+srv2.Addr(), bins, *clients, *requests)
		warmWall := time.Since(warmStart)
		agree = estimatePercentiles(&warm, srv2.Registry()) && agree
		res.Warm = &warm
		res.WarmHitRate = warm.HitRate

		st, err = (&eeld.Client{Base: "http://" + srv2.Addr(), Name: "eelload"}).Stats(context.Background())
		if err != nil {
			fatal(err)
		}
		res.BytesRewritten = st.BytesRewritten
		res.BytesRewrittenPerSec = float64(st.BytesRewritten) / warmWall.Seconds()
		drain(srv2)
	}

	report(res)
	if of.Stats {
		data, _ := json.MarshalIndent(st, "", "  ") // plain numbers: cannot fail
		fmt.Fprintf(os.Stderr, "eelload: daemon stats: %s\n", data)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "eelload: wrote %s\n", *out)

	if !agree {
		fatal(fmt.Errorf("histogram-estimated percentiles disagree with exact server-side percentiles by more than one bucket"))
	}
	if *minWarmHit > 0 && res.WarmHitRate < *minWarmHit {
		fatal(fmt.Errorf("warm hit rate %.3f below required %.3f", res.WarmHitRate, *minWarmHit))
	}
}

func startDaemon(cfg eeld.Config) *eeld.Server {
	srv, err := eeld.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	return srv
}

func drain(srv *eeld.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
}

// drive runs the workload: n clients, each issuing r requests over
// the corpus (every third an instrument, the rest analyzes), and
// returns the phase's latency and cache aggregates.
func drive(base string, bins [][]byte, n, r int) phaseResult {
	type sample struct {
		lat   time.Duration
		srvNS int64
		c     eeld.CacheStats
		err   error
	}
	samples := make([][]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var srvNS int64
			client := &eeld.Client{
				Base: base, Name: fmt.Sprintf("load-%d", ci),
				OnSummary: func(s eeld.RequestSummary) { srvNS = s.QueueNS + s.RunNS },
			}
			ctx := context.Background()
			for ri := 0; ri < r; ri++ {
				bin := bins[(ci+ri)%len(bins)]
				t0 := time.Now()
				srvNS = 0
				var cs eeld.CacheStats
				var err error
				if ri%3 == 2 {
					var resp *eeld.InstrumentResponse
					if resp, err = client.Instrument(ctx, &eeld.InstrumentRequest{Binary: bin}); err == nil {
						cs = resp.Cache
					}
				} else {
					var resp *eeld.AnalyzeResponse
					if resp, err = client.Analyze(ctx, &eeld.AnalyzeRequest{Binary: bin}); err == nil {
						cs = resp.Cache
					}
				}
				samples[ci] = append(samples[ci], sample{time.Since(t0), srvNS, cs, err})
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	var ph phaseResult
	var lats, srvLats []time.Duration
	for _, cs := range samples {
		for _, s := range cs {
			ph.Requests++
			if s.err != nil {
				ph.Errors++
				continue
			}
			lats = append(lats, s.lat)
			if s.srvNS > 0 {
				srvLats = append(srvLats, time.Duration(s.srvNS))
			}
			ph.Hits += s.c.Hits
			ph.DiskHits += s.c.DiskHits
			ph.Misses += s.c.Misses
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ph.P50MS = percentileMS(lats, 50)
	ph.P99MS = percentileMS(lats, 99)
	sort.Slice(srvLats, func(i, j int) bool { return srvLats[i] < srvLats[j] })
	ph.SrvP50MS = percentileMS(srvLats, 50)
	ph.SrvP99MS = percentileMS(srvLats, 99)
	ph.WallMS = float64(wall.Nanoseconds()) / 1e6
	if wall > 0 {
		ph.RPS = float64(ph.Requests) / wall.Seconds()
	}
	if total := ph.Hits + ph.Misses; total > 0 {
		ph.HitRate = float64(ph.Hits) / float64(total)
	}
	return ph
}

// percentileMS reads the exact p-th percentile from sorted latencies.
func percentileMS(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

func report(res benchResult) {
	show := func(name string, ph *phaseResult) {
		if ph == nil {
			return
		}
		fmt.Fprintf(os.Stderr,
			"eelload: %-4s %d reqs (%d errors) in %.0fms — %.1f req/s, p50 %.2fms, p99 %.2fms, hit rate %.1f%% (%d disk)\n",
			name, ph.Requests, ph.Errors, ph.WallMS, ph.RPS, ph.P50MS, ph.P99MS, 100*ph.HitRate, ph.DiskHits)
		if ph.P99EstMS > 0 {
			fmt.Fprintf(os.Stderr,
				"eelload: %-4s server-side p50 %.2fms, p99 %.2fms exact; p50 %.2fms, p99 %.2fms histogram-estimated\n",
				name, ph.SrvP50MS, ph.SrvP99MS, ph.P50EstMS, ph.P99EstMS)
		}
	}
	show("cold", res.Cold)
	show("warm", res.Warm)
	if res.BytesRewritten > 0 {
		fmt.Fprintf(os.Stderr, "eelload: %.0f bytes rewritten/sec in the warm phase\n", res.BytesRewrittenPerSec)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eelload:", err)
	os.Exit(1)
}
