package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"eel/internal/telemetry"
)

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4).  Names are sanitized (dots and
// other separators become underscores), counters get the conventional
// _total suffix, and histograms are rendered with *cumulative*
// le-buckets plus _sum and _count so p50/p99 are scrape-derivable via
// histogram_quantile().  Output is deterministic: names sorted,
// buckets ascending.
func WritePrometheus(w io.Writer, s telemetry.Snapshot) error {
	var b strings.Builder

	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := PromName(k) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := PromName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[k])
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := PromName(k)
		hs := s.Histograms[k]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum uint64
		for _, bk := range hs.Buckets {
			cum += bk.Count
			if bk.Bucket >= 64 {
				// The top bucket's Hi is MaxUint64; it folds into +Inf.
				continue
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", n, bk.Hi, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, hs.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", n, hs.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, hs.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// PromName sanitizes a telemetry instrument name into a valid
// Prometheus metric name: every character outside [a-zA-Z0-9_:]
// becomes an underscore ("eeld.latency_ns" → "eeld_latency_ns").
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// MetricsHandler serves the registry (or, when reg is nil, the
// process-wide telemetry default at request time) in Prometheus text
// format.
func MetricsHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		target := reg
		if target == nil {
			target = telemetry.Default()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, target.Snapshot())
	})
}

// FlightHandler serves the process-wide flight recorder as JSON
// (?format=text for the human dump).  An empty or disabled recorder
// serves an empty array, not an error — scrapers should not have to
// special-case it.
func FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := ActiveFlight()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			f.Dump(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		f.WriteJSON(w)
	})
}
