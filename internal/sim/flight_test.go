package sim

import (
	"sync"
	"testing"

	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/spawn"
)

// TestFlightEventsFromRoutineTier checks that the routine tier's
// notable transitions land in the flight recorder: promotion at the
// heat threshold, program install, the self-modifying store's text
// invalidation, the resulting deopt, and a routine's refusal.
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

	// A refused routine: its entry block loads with a width read from
	// a register, which no lowering handles.  The refusal names the
	// entry and that load.
	const base = 0x10000
	refuse := loadWords(t, refuseDecoder(), base, []uint32{
		1<<26 | 1<<21 | 8, // addi r1, r0, 8
		2<<26 | 2<<21,     // dynw r2, [r0]{r2}
		3<<26 | 31<<16,    // jr r31
	})
	refuse.Engine = EngineRoutine
	refuse.RoutineSync = true
	refuse.RoutineHotThreshold = 1
	refuse.Run(10)
	refused := false
	for _, e := range f.Events() {
		if e.Kind == obs.EvRoutineRefuse && e.A == base {
			refused = true
			if e.B != base+4 {
				t.Errorf("refusal blames %#x, want the load at %#x", e.B, base+4)
			}
		}
	}
	if !refused {
		t.Error("no routine-refuse event for the refused entry")
	}
}

// refuseDecoder decodes a three-instruction machine whose dynw load
// takes its width from a register.
func refuseDecoder() *spawn.TableDecoder {
	refuseOnce.Do(func() {
		machine.RegisterArch(machine.ArchInfo{
			Name:       "rtrefuse",
			NewDecoder: func() machine.Decoder { return refuseDecoder() },
		})
	})
	return spawn.NewDecoder(spawn.NewMemo(spawn.MustParseDesc(`
machine rtrefuse
instruction{32} fields op 26:31, rd 21:25, rs 16:20, imm 0:15
register integer{32} R[32]
register integer{32} pc
zero is R[0]
pat [ addi dynw jr ] is op=[1 2 3]
sem addi is R[rd] := R[rs] + imm
sem dynw is R[rd] := M[R[rs]]{R[rd]}
sem jr is t := R[rs] ; pc := t
`), nil), nil)
}

var refuseOnce sync.Once
