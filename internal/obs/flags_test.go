package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"eel/internal/telemetry"
)

// TestDebugAddrServesEverything starts the one debug listener through
// the flags and scrapes each endpoint it promises.
func TestDebugAddrServesEverything(t *testing.T) {
	if telemetry.Default() == nil {
		defer telemetry.Disable()
	}
	if ActiveFlight() == nil {
		defer DisableFlight()
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-debug-addr=127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stop, err := f.Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	telemetry.Default().Counter("obs.test.scrapes").Add(1)
	Record(EvTierPromote, 0x1000, 1)

	base := "http://" + f.ln.Addr().String()
	for _, c := range []struct{ path, want string }{
		{"/metrics", "obs_test_scrapes_total 1"},
		{"/debug/flight", "tier-promote"},
		{"/debug/pprof/", "goroutine"},
		{"/debug/vars", `"eel"`},
	} {
		resp, err := http.Get(base + c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", c.path, resp.StatusCode, err)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s: body lacks %q:\n%.300s", c.path, c.want, body)
		}
	}
}

// TestDebugAddrUnusable pins that an address the listener cannot bind
// fails Start instead of being reported and ignored.
func TestDebugAddrUnusable(t *testing.T) {
	f := &Flags{DebugAddr: "256.0.0.1:0"}
	if _, err := f.Start(io.Discard); err == nil {
		t.Fatal("Start accepted an unusable -debug-addr")
	}
}
