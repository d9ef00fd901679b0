// Package obs is the request-scoped observability layer on top of
// internal/telemetry: distributed trace identifiers propagated end to
// end through the eeld service (the X-Eel-Trace header), a Prometheus
// text exposition of the telemetry registry (prom.go), and an
// always-on flight recorder — a fixed-size lock-sharded ring buffer
// of recent notable events (flight.go) that can be dumped on SIGQUIT
// or scraped from /debug/flight when something just went wrong — and
// the observability flags every tool shares (flags.go), whose
// -debug-addr serves all of it on one listener.
//
// Like the rest of the telemetry stack, everything here follows the
// nil-sink discipline: a nil *Flight absorbs Record calls with a
// single branch and zero allocations (BenchmarkFlightDisabled asserts
// it), so instrumented code paths cost nothing until a recorder is
// installed.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// TraceHeader is the HTTP header carrying a request's span context,
// formatted by SpanContext.String and parsed by ParseSpanContext.
const TraceHeader = "X-Eel-Trace"

// SpanContext locates one operation in a distributed trace: Trace is
// the 64-bit ID shared by every span the request touches (client,
// queue, handler, pipeline waves, per-routine analyses), Span the ID
// of the current operation.  The zero value is "no trace".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// NewSpanContext mints a fresh trace with a root span.  IDs are
// random, not sequential, so traces minted by independent clients
// never collide.
func NewSpanContext() SpanContext {
	return SpanContext{Trace: nonzero64(), Span: nonzero64()}
}

func nonzero64() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// Valid reports whether sc carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// Child derives a new span in the same trace (the server continuing a
// client-minted trace).
func (sc SpanContext) Child() SpanContext {
	if !sc.Valid() {
		return SpanContext{}
	}
	return SpanContext{Trace: sc.Trace, Span: nonzero64()}
}

// String renders the wire form "tttttttttttttttt-ssssssssssssssss"
// (two fixed-width lowercase-hex fields).  The empty string stands
// for an invalid context.
func (sc SpanContext) String() string {
	if !sc.Valid() {
		return ""
	}
	return fmt.Sprintf("%016x-%016x", sc.Trace, sc.Span)
}

// TraceID renders just the trace half — the value every span of one
// request shares.
func (sc SpanContext) TraceID() string {
	if !sc.Valid() {
		return ""
	}
	return fmt.Sprintf("%016x", sc.Trace)
}

// ParseSpanContext parses the wire form.  It accepts exactly the
// String layout; anything else (including an empty header) reports
// ok=false so the caller mints a fresh context.
func ParseSpanContext(s string) (SpanContext, bool) {
	t, rest, found := strings.Cut(s, "-")
	if !found || len(t) != 16 || len(rest) != 16 {
		return SpanContext{}, false
	}
	tv, err1 := strconv.ParseUint(t, 16, 64)
	sv, err2 := strconv.ParseUint(rest, 16, 64)
	if err1 != nil || err2 != nil || tv == 0 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: tv, Span: sv}, true
}

type ctxKey struct{}

// ContextWith returns ctx carrying sc, for handlers threading the
// request's trace down into the pipeline.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the span context carried by ctx, or the zero
// (invalid) context.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
