package obs

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"eel/internal/telemetry"
)

// Flags are the observability flags every tool and example shares:
// -stats (print the tool's own statistics), -metrics (print the
// telemetry registry at exit), -trace FILE (write a Chrome trace-event
// JSON file), and -debug-addr ADDR (serve the debug endpoints of
// debugHandler for the life of the command).  Register them with
// AddFlags, parse, then Start.
type Flags struct {
	// Stats is -stats.  What it prints is the tool's business:
	// pipeline statistics, emulator engine counters, cache counters.
	Stats     bool
	Metrics   bool
	TracePath string
	DebugAddr string

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ln     net.Listener
	served chan struct{} // closed when the debug server has returned
}

// AddFlags registers the observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Stats, "stats", false, "print statistics: analysis pipeline, emulator engine, and cache counters")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the telemetry metrics registry at exit")
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace-event JSON file (load in chrome://tracing)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics, /debug/flight, /debug/pprof/ and /debug/vars on this address")
	return f
}

// Start activates whatever the parsed flags asked for: the
// process-wide registry for -metrics or -debug-addr, the flight
// recorder and the debug listener for -debug-addr, and the
// process-wide tracer for -trace.  An unusable -debug-addr is an
// error.  The returned stop writes the trace file, prints the metrics
// to w, and closes the listener; defer it.  With no flags set, Start
// and stop do nothing.
func (f *Flags) Start(w io.Writer) (stop func() error, err error) {
	if f.DebugAddr != "" {
		if f.ln, err = net.Listen("tcp", f.DebugAddr); err != nil {
			return nil, err
		}
	}
	if f.Metrics || f.ln != nil {
		f.reg = telemetry.Enable()
	}
	if f.ln != nil {
		if ActiveFlight() == nil {
			EnableFlight(0)
		}
		f.served = make(chan struct{})
		go func() {
			defer close(f.served)
			http.Serve(f.ln, debugHandler())
		}()
	}
	if f.TracePath != "" {
		f.tracer = telemetry.NewTracer()
		telemetry.SetTracer(f.tracer)
	}
	return func() error { return f.stop(w) }, nil
}

func (f *Flags) stop(w io.Writer) error {
	if f.ln != nil {
		f.ln.Close()
		<-f.served
	}
	var firstErr error
	if f.tracer != nil {
		telemetry.SetTracer(nil)
		if err := f.tracer.WriteFile(f.TracePath); err != nil {
			firstErr = err
		} else {
			fmt.Fprintf(w, "telemetry: wrote trace to %s (load in chrome://tracing)\n", f.TracePath)
		}
	}
	if f.Metrics {
		fmt.Fprintln(w, "telemetry metrics:")
		if err := f.reg.WriteJSON(w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// expvarOnce guards the process-wide expvar publication (expvar
// panics on duplicate names).
var expvarOnce sync.Once

// debugHandler serves the process-wide debug endpoints: /metrics
// (the telemetry registry in Prometheus text), /debug/flight (the
// flight recorder), /debug/pprof/ (net/http/pprof), and /debug/vars
// (expvar, with the registry published as "eel").
func debugHandler() http.Handler {
	expvarOnce.Do(func() {
		expvar.Publish("eel", expvar.Func(func() any { return telemetry.Default().Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(nil))
	mux.Handle("/debug/flight", FlightHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
