package sim

import (
	"reflect"
	"testing"

	"eel/internal/progen"
	"eel/internal/telemetry"
)

// TestResetCounters covers the per-run JIT accounting fix: a reused
// CPU accumulated builds/flushes/deopts across Run invocations, so a
// second run's numbers included the first's.  ResetCounters gives
// callers a clean baseline without discarding cached translations.
func TestResetCounters(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(3))

	cpu := LoadFile(p.File, nil)
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	first := cpu.Counters()
	if first.Builds == 0 {
		t.Fatalf("first run built no superblocks: %+v", first)
	}
	if first.Insts != cpu.InstCount {
		t.Fatalf("Counters().Insts = %d, want InstCount %d", first.Insts, cpu.InstCount)
	}

	// Without a reset, a second run on the reused CPU starts from the
	// first run's JIT totals (the bug this API fixes).
	cpu.ResetCounters()
	after := cpu.Counters()
	if after.Builds != 0 || after.Flushes != 0 || after.Deopts != 0 {
		t.Fatalf("ResetCounters left JIT counters nonzero: %+v", after)
	}

	// Rerun the same program: translations were kept (Reset below
	// invalidates, so rebuild counts are fresh) and the counters now
	// describe only this run.
	cpu.Reset(p.File.Entry, DefaultStack)
	cpu.ResetCounters() // Reset's own invalidation counts as a flush; start clean
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	second := cpu.Counters()
	if second.Builds == 0 {
		t.Fatalf("second run built no superblocks: %+v", second)
	}
	if second.Builds > first.Builds {
		t.Fatalf("second run reports more builds (%d) than a full cold run (%d)",
			second.Builds, first.Builds)
	}
	if second.Flushes != 0 {
		t.Fatalf("second run reports stale flushes: %+v", second)
	}
}

// TestCountersDeopt checks the deopt counter stays zero on a fully
// translatable workload: deopts only happen when a pc has no
// translation, which progen programs never produce.
func TestCountersDeopt(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(3))
	cpu := LoadFile(p.File, nil)
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if k := cpu.Counters(); k.Deopts != 0 {
		t.Fatalf("fully translatable workload reported %d deopts", k.Deopts)
	}
}

// TestZeroValueEngineIsChained pins the Engine zero value: a CPU
// straight from LoadFile runs the chained engine, not the routine
// tier.
func TestZeroValueEngineIsChained(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(5))
	cpu := LoadFile(p.File, nil)
	if cpu.Engine != EngineChained {
		t.Fatalf("zero-value engine is %s, want %s", cpu.Engine, EngineChained)
	}
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	k := cpu.Counters()
	if k.ChainHits == 0 || k.RoutinesCompiled != 0 {
		t.Fatalf("zero-value CPU did not run chained: %+v", k)
	}
}

// TestCountersResetAndPublish runs the routine tier over a
// self-modifying program, which compiles, deopts, and flushes, then
// checks that ResetCounters zeroes every non-architected field and
// that the sim.* registry deltas Run publishes equal the Counters()
// deltas field for field.
func TestCountersResetAndPublish(t *testing.T) {
	// One table entry per Counters field, each addressing a distinct
	// field: the publish loop covers the struct exactly.
	var k Counters
	seen := map[*uint64]bool{}
	for _, m := range counterMetrics {
		seen[m.field(&k)] = true
	}
	if n := reflect.TypeOf(k).NumField(); len(seen) != n || len(counterMetrics) != n {
		t.Fatalf("counterMetrics names %d distinct of %d entries; Counters has %d fields",
			len(seen), len(counterMetrics), n)
	}

	cfg := progen.DefaultConfig(3)
	cfg.SelfMod = true
	p := progen.MustGenerate(cfg)
	cpu := LoadFile(p.File, nil)
	cpu.Engine = EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1

	if telemetry.Default() == nil {
		defer telemetry.Disable()
	}
	reg := telemetry.Enable()
	snap := func() map[string]uint64 { return reg.Snapshot().Counters }
	regBefore, before := snap(), cpu.Counters()
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	regAfter, after := snap(), cpu.Counters()
	for _, m := range counterMetrics {
		got := regAfter[m.name] - regBefore[m.name]
		want := *m.field(&after) - *m.field(&before)
		if got != want {
			t.Errorf("%s: registry delta %d, Counters delta %d", m.name, got, want)
		}
	}
	if after.Builds == 0 || after.Flushes == 0 || after.RoutinesCompiled == 0 || after.RoutineDeopts == 0 {
		t.Fatalf("workload did not exercise the tiers: %+v", after)
	}

	cpu.ResetCounters()
	k = cpu.Counters()
	for _, m := range counterMetrics {
		architected := m.field(&k) == &k.Insts || m.field(&k) == &k.Annuls
		if v := *m.field(&k); !architected && v != 0 {
			t.Errorf("%s = %d after ResetCounters", m.name, v)
		}
	}
	if k.Insts != cpu.InstCount || k.Annuls != cpu.AnnulCount {
		t.Errorf("ResetCounters touched architected counts: %+v", k)
	}
}
