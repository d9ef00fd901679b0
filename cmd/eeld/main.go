// Command eeld is the EEL analysis-and-rewriting daemon: a
// long-running HTTP service answering analyze, instrument, and verify
// jobs over the wire protocol in internal/eeld, backed by the shared
// in-memory analysis cache and — when -cache-dir is given — a
// persistent log-structured disk store (one segment file per analysis
// run, records keyed by routine content) that survives restarts and
// is shared by every client.
//
// Admission is bounded: at most -queue requests wait, dispatched to
// -workers executors by a weighted round robin keyed on the
// X-Eel-Client header, each request subject to -timeout.  SIGTERM and
// SIGINT trigger a graceful drain: admission stops (503), queued and
// in-flight jobs finish, then the process exits.
//
// Observability: every request carries (or is given) an X-Eel-Trace
// ID, spans cover queue wait/handler/pipeline, and one structured log
// line per request goes to stderr.  /metrics serves the telemetry
// registry in Prometheus text format, /debug/flight the flight
// recorder's recent notable events, and SIGQUIT dumps the flight
// record to stderr without stopping the daemon.  -debug-addr adds a
// separate listener with pprof and expvar; -stats prints the final
// request and cache counters (as /v1/stats serves them) on exit.
//
// Usage:
//
//	eeld [-addr HOST:PORT] [-cache-dir DIR] [-cache-entries N]
//	     [-cache-bytes N] [-mem-entries N] [-workers N] [-queue N]
//	     [-timeout D] [-drain-timeout D] [-max-binary N] [-j N]
//	     [-log] [-stats] [-metrics] [-trace FILE] [-debug-addr ADDR]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eel/internal/eeld"
	"eel/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8723", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent analysis cache directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "disk cache entry bound (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "disk cache byte bound (0 = default)")
	memEntries := flag.Int("mem-entries", 0, "in-memory cache entry bound (0 = unbounded)")
	workers := flag.Int("workers", 0, "concurrent job executors (0 = default)")
	queue := flag.Int("queue", 0, "admission queue bound (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-request timeout, queue wait included (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound on SIGTERM")
	maxBinary := flag.Int64("max-binary", 0, "largest accepted binary in bytes (0 = default)")
	jobs := flag.Int("j", 0, "per-job analysis worker count (0 = GOMAXPROCS)")
	logReq := flag.Bool("log", true, "log one structured line per request to stderr")
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer stop()

	var logger *slog.Logger
	if *logReq {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv, err := eeld.New(eeld.Config{
		Addr:            *addr,
		CacheDir:        *cacheDir,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		MemEntries:      *memEntries,
		Workers:         *workers,
		PipelineWorkers: *jobs,
		MaxQueue:        *queue,
		RequestTimeout:  *timeout,
		MaxBinaryBytes:  *maxBinary,
		Logger:          logger,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "eeld: listening on %s", srv.Addr())
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, ", cache %s", *cacheDir)
	}
	fmt.Fprintln(os.Stderr)

	// SIGQUIT dumps the flight recorder and keeps serving — the
	// "what just happened" lever for a daemon that must stay up.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			obs.ActiveFlight().Dump(os.Stderr)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "eeld: %v, draining\n", sig)
	case err := <-srv.ServeErr():
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if of.Stats {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		enc.Encode(srv.Stats()) // diagnostics on stderr
	}
	fmt.Fprintln(os.Stderr, "eeld: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eeld:", err)
	os.Exit(1)
}
