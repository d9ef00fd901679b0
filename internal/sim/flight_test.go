package sim

import (
	"testing"

	"eel/internal/obs"
)

// TestFlightEventsFromRoutineTier checks that the routine tier's
// notable transitions land in the flight recorder: promotion at the
// heat threshold, program install, the self-modifying store's text
// invalidation, and the resulting deopt.
func TestFlightEventsFromRoutineTier(t *testing.T) {
	prev := obs.ActiveFlight()
	defer func() {
		obs.DisableFlight()
		if prev != nil {
			obs.EnableFlight(0)
		}
	}()
	f := obs.EnableFlight(1024)

	src := `
	sethi %hi(0x10018), %o3
	or %o3, %lo(0x10018), %o3
	ld [%o3], %o4
	st %o4, [%o3]
	mov 33, %o0
	mov 1, %g1
	ta 0
	retl
	nop
`
	cpu, prog := load(t, src, 0x10000)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	cpu.Engine = EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	run(t, cpu)

	if cpu.ExitCode != 33 {
		t.Fatalf("exit = %d, want 33", cpu.ExitCode)
	}
	k := cpu.Counters()
	if k.RoutinesCompiled == 0 || k.RoutineDeopts == 0 {
		t.Fatalf("tier not exercised: compiled %d deopts %d", k.RoutinesCompiled, k.RoutineDeopts)
	}

	kinds := map[obs.EventKind]int{}
	for _, e := range f.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []obs.EventKind{
		obs.EvTierPromote, obs.EvRoutineInstall, obs.EvInvalidate, obs.EvRoutineDeopt,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v event recorded (got %v)", want, kinds)
		}
	}
	if got := uint64(kinds[obs.EvRoutineDeopt]); got != k.RoutineDeopts {
		t.Errorf("%d deopt events for %d counted deopts", got, k.RoutineDeopts)
	}
}
