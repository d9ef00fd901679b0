package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"eel/internal/binfile"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/telemetry"
)

// runRoutineMode executes f to completion under the routine tier
// (synchronous compilation, immediate promotion) and returns the
// final CPU and its output.
func runRoutineMode(t *testing.T, f *binfile.File) (*CPU, []byte) {
	t.Helper()
	var out bytes.Buffer
	cpu := LoadFile(f, &out)
	cpu.Engine = EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatalf("routine run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("program did not halt (routine)")
	}
	return cpu, out.Bytes()
}

// TestRoutineMatchesInterpreter is the routine tier's differential
// test: every progen workload flavour runs under the single-step
// interpreter and under the routine tier, and the architected results
// must be bit-identical.
func TestRoutineMatchesInterpreter(t *testing.T) {
	configs := []struct {
		name string
		cfg  progen.Config
	}{
		{"gcc-default", progen.DefaultConfig(1)},
		{"gcc-seed7", progen.DefaultConfig(7)},
		{"gcc-large", func() progen.Config {
			c := progen.DefaultConfig(2012)
			c.Routines = 60
			return c
		}()},
		{"sunpro", func() progen.Config {
			c := progen.DefaultConfig(11)
			c.Personality = progen.SunPro
			return c
		}()},
		{"memheavy", func() progen.Config {
			c := progen.DefaultConfig(1011)
			c.MemHeavy = true
			return c
		}()},
		{"callheavy", func() progen.Config {
			c := progen.DefaultConfig(4021)
			c.CallHeavy = true
			return c
		}()},
		{"kitchen-sink", func() progen.Config {
			c := progen.DefaultConfig(99)
			c.Personality = progen.SunPro
			c.DataTables = true
			c.MultiEntry = true
			c.DebugLabels = true
			c.HiddenFrac = 0.2
			return c
		}()},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			p, err := progen.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			interp, interpOut := runMode(t, p.File, EngineInterp)
			rt, rtOut := runRoutineMode(t, p.File)

			if interp.ExitCode != rt.ExitCode {
				t.Errorf("exit code: interp %d, got %d", interp.ExitCode, rt.ExitCode)
			}
			if !bytes.Equal(interpOut, rtOut) {
				t.Errorf("output diverged: interp %d bytes, got %d bytes", len(interpOut), len(rtOut))
			}
			if interp.InstCount != rt.InstCount {
				t.Errorf("InstCount: interp %d, got %d", interp.InstCount, rt.InstCount)
			}
			if interp.AnnulCount != rt.AnnulCount {
				t.Errorf("AnnulCount: interp %d, got %d", interp.AnnulCount, rt.AnnulCount)
			}
			if interp.R != rt.R {
				t.Errorf("integer registers diverged:\ninterp %v\ngot    %v", interp.R, rt.R)
			}
			if interp.F != rt.F {
				t.Error("float registers diverged")
			}
			if interp.Y != rt.Y || interp.PSR != rt.PSR || interp.FSR != rt.FSR {
				t.Errorf("special registers diverged: Y %x/%x PSR %x/%x FSR %x/%x",
					interp.Y, rt.Y, interp.PSR, rt.PSR, interp.FSR, rt.FSR)
			}
			if len(interp.windows) != len(rt.windows) {
				t.Errorf("window depth: interp %d, got %d", len(interp.windows), len(rt.windows))
			}
			if addr, ok := interp.Mem.Diff(rt.Mem); !ok {
				t.Errorf("memory diverged at %#x: interp %#x, got %#x",
					addr, interp.Mem.ByteAt(addr), rt.Mem.ByteAt(addr))
			}
			k := rt.Counters()
			if k.RoutinesCompiled == 0 {
				t.Error("no routines compiled; routine tier not exercised")
			}
			if k.TierPromotions == 0 {
				t.Error("no tier promotions recorded")
			}
		})
	}
}

// TestRoutineSelfModifyingDeopt pins the deopt invariant: a store
// into watched text from inside a routine program retires, bumps the
// generation, and falls back to the lower tiers with exact state.
func TestRoutineSelfModifyingDeopt(t *testing.T) {
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
	ref, refProg := load(t, src, 0x10000)
	ref.TextStart, ref.TextEnd = refProg.Base, refProg.Base+uint32(len(refProg.Bytes))
	ref.Engine = EngineInterp
	run(t, ref)

	cpu, prog := load(t, src, 0x10000)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	cpu.Engine = EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	run(t, cpu)

	if cpu.ExitCode != 33 || cpu.ExitCode != ref.ExitCode {
		t.Errorf("exit = %d (interp %d), want 33", cpu.ExitCode, ref.ExitCode)
	}
	if cpu.InstCount != ref.InstCount {
		t.Errorf("InstCount = %d, interp %d", cpu.InstCount, ref.InstCount)
	}
	k := cpu.Counters()
	if k.RoutinesCompiled == 0 {
		t.Fatal("routine never compiled; deopt path not exercised")
	}
	if k.RoutineDeopts == 0 {
		t.Error("self-modifying store did not count a routine deopt")
	}
	for i, w := range cpu.rt.words {
		if w.prog != nil {
			t.Fatalf("stale routine head at %#x survived text invalidation", cpu.rt.base+4*uint32(i))
		}
	}
}

// TestRoutineStepLimitParity: for every step budget, the routine tier
// stops with the identical fault, pc, and instruction count as the
// interpreter — the budget refusal must hand over to a tier that can
// hit the limit exactly.
func TestRoutineStepLimitParity(t *testing.T) {
	src := `
	mov 0, %o0
	mov 5, %o1
loop:	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
	retl
	nop
`
	for limit := uint64(1); limit <= 26; limit++ {
		ref, refProg := load(t, src, 0x10000)
		ref.TextStart, ref.TextEnd = refProg.Base, refProg.Base+uint32(len(refProg.Bytes))
		ref.Engine = EngineInterp
		refErr := ref.Run(limit)

		cpu, prog := load(t, src, 0x10000)
		cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
		cpu.Engine = EngineRoutine
		cpu.RoutineSync = true
		cpu.RoutineHotThreshold = 1
		rtErr := cpu.Run(limit)

		if (refErr == nil) != (rtErr == nil) {
			t.Fatalf("limit %d: err: interp %v, routine %v", limit, refErr, rtErr)
		}
		if refErr != nil {
			if !errors.Is(rtErr, ErrStepLimit) {
				t.Fatalf("limit %d: routine err = %v, want step limit", limit, rtErr)
			}
			if refErr.Error() != rtErr.Error() {
				t.Fatalf("limit %d: err: interp %q, routine %q", limit, refErr, rtErr)
			}
		}
		if ref.InstCount != cpu.InstCount || ref.PC != cpu.PC || ref.NPC != cpu.NPC {
			t.Fatalf("limit %d: state: interp insts=%d pc=%#x npc=%#x, routine insts=%d pc=%#x npc=%#x",
				limit, ref.InstCount, ref.PC, ref.NPC, cpu.InstCount, cpu.PC, cpu.NPC)
		}
		if ref.R != cpu.R {
			t.Fatalf("limit %d: registers diverged", limit)
		}
	}
}

// TestRoutineAsyncPromotion pins the no-stall property: with the
// background compiler (no RoutineSync), a long-running loop is
// promoted mid-run — between steps — and the architected results stay
// exact.  The worker touches only job-private data, so this test is
// meaningful under -race.
func TestRoutineAsyncPromotion(t *testing.T) {
	const n = 2_000_000
	src := `
	sethi %hi(2000000), %o1
	or %o1, %lo(2000000), %o1
loop:	subcc %o1, 1, %o1
	bne loop
	nop
	mov 7, %o0
	mov 1, %g1
	ta 0
	retl
	nop
`
	cpu, prog := load(t, src, 0x10000)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	cpu.Engine = EngineRoutine
	cpu.RoutineHotThreshold = 1
	if err := cpu.Run(20_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("program did not halt")
	}

	if cpu.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", cpu.ExitCode)
	}
	// 2 setup + 3 per iteration + mov + mov + ta.
	if want := uint64(2 + 3*n + 3); cpu.InstCount != want {
		t.Errorf("InstCount = %d, want %d", cpu.InstCount, want)
	}
	k := cpu.Counters()
	if k.TierPromotions == 0 {
		t.Error("no promotion requested for the hot loop")
	}
	if k.RoutinesCompiled == 0 {
		t.Error("background compile did not install before the loop finished")
	}
}

// TestRoutineCountersAndReset: tier counters accumulate and reset
// like the chaining counters.
func TestRoutineCountersAndReset(t *testing.T) {
	p, err := progen.Generate(progen.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runRoutineMode(t, p.File)
	k := cpu.Counters()
	if k.RoutinesCompiled == 0 || k.TierPromotions == 0 {
		t.Fatalf("counters not engaged: %+v", k)
	}
	cpu.ResetCounters()
	k = cpu.Counters()
	if k.RoutinesCompiled != 0 || k.TierPromotions != 0 || k.RoutineDeopts != 0 {
		t.Errorf("counters survived reset: %+v", k)
	}
}

// TestSelfModifyAfterResetOntoOtherText: the text write watch follows
// the text bounds across a Reset.  The program patches its own add
// (1 becomes 10) and runs it again, so it exits 11 on every engine;
// a watch left on the bounds of an earlier program at 0x20000 never
// sees the patch, and the chained engine re-runs the stale
// translation to exit 2.
func TestSelfModifyAfterResetOntoOtherText(t *testing.T) {
	src := `
	mov 0, %o2
	mov 1, %o0
again:	add %o0, 1, %o0
	cmp %o2, 0
	bne done
	nop
	sethi %hi(again), %o4
	or %o4, %lo(again), %o4
	ld [%o4], %o3
	add %o3, 9, %o3
	st %o3, [%o4]
	mov 1, %o2
	ba again
	mov 1, %o0
done:	mov 1, %g1
	ta 0
`
	fresh, prog := load(t, src, 0x10000)
	fresh.TextStart, fresh.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	fresh.Engine = EngineChained
	run(t, fresh)
	if fresh.ExitCode != 11 {
		t.Fatalf("fresh CPU: exit %d, want 11", fresh.ExitCode)
	}

	cpu, a := load(t, "\tmov 5, %o0\n"+exitSeq, 0x20000)
	cpu.TextStart, cpu.TextEnd = a.Base, a.Base+uint32(len(a.Bytes))
	cpu.Engine = EngineChained
	run(t, cpu)
	cpu.Mem.LoadSegment(prog.Base, prog.Bytes)
	cpu.TextStart, cpu.TextEnd = fresh.TextStart, fresh.TextEnd
	cpu.Reset(prog.Base, 0x7ff000)
	run(t, cpu)
	if cpu.ExitCode != 11 {
		t.Errorf("CPU reset onto other text: exit %d, want 11", cpu.ExitCode)
	}
}

// TestRoutineResetOntoOtherText: a CPU Reset onto text with other
// bounds (here larger, and starting below the old text) re-sizes the
// routine tier's per-word table, still promotes, and matches the
// interpreter.
func TestRoutineResetOntoOtherText(t *testing.T) {
	cpu, a := load(t, "\tmov 5, %o0\n"+exitSeq, 0x20000)
	cpu.TextStart, cpu.TextEnd = a.Base, a.Base+uint32(len(a.Bytes))
	cpu.Engine = EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	run(t, cpu)

	src := `
	mov 0, %o0
	mov 50, %o1
loop:	call inc
	nop
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
inc:	retl
	add %o0, 3, %o0
`
	ref, b := load(t, src, 0x10000)
	ref.TextStart, ref.TextEnd = b.Base, b.Base+uint32(len(b.Bytes))
	ref.Engine = EngineInterp
	run(t, ref)

	cpu.Mem.LoadSegment(b.Base, b.Bytes)
	cpu.TextStart, cpu.TextEnd = ref.TextStart, ref.TextEnd
	cpu.Reset(b.Base, 0x7ff000)
	cpu.ResetCounters()
	run(t, cpu)
	if cpu.ExitCode != 150 || cpu.ExitCode != ref.ExitCode || cpu.InstCount != ref.InstCount || cpu.R != ref.R {
		t.Errorf("exit %d, insts %d (interp: exit %d, insts %d, registers equal %v); want exit 150",
			cpu.ExitCode, cpu.InstCount, ref.ExitCode, ref.InstCount, cpu.R == ref.R)
	}
	if k := cpu.Counters(); k.RoutinesCompiled == 0 {
		t.Error("no routine compiled after the Reset")
	}
	if cpu.rt.base != b.Base || len(cpu.rt.words) != len(b.Bytes)/4 {
		t.Errorf("per-word table covers %d words at %#x, want %d at %#x", len(cpu.rt.words), cpu.rt.base, len(b.Bytes)/4, b.Base)
	}
}

// TestRoutineCacheBounded stores more distinct keys than the routine
// program cache's table (spawn.Table, the memo's) has slots, as a
// self-modifying program's text writes would: the table holds at most
// one entry per slot, the latest store of each slot loads back,
// negative results included, and a key that differs only in its
// machine misses.
func TestRoutineCacheBounded(t *testing.T) {
	tab := new(spawn.Table[rtCacheEnt])
	desc := sparc.NewDecoder().Desc()
	key := func(i int) rtCacheKey {
		return rtCacheKey{desc: desc, textStart: 0x10000, textEnd: 0x20000, hash: uint64(i) * 0x100000001b3, entry: 0x10000}
	}
	n := len(tab) + len(tab)/4
	for i := 0; i < n; i++ {
		ent := &rtCacheEnt{prog: &routineProg{}}
		if i%2 == 1 {
			ent = &rtCacheEnt{err: errors.New("negative"), pc: 0x10004}
		}
		key(i).store(tab, ent)
	}
	population := 0
	for i := range tab {
		if tab[i].Load() != nil {
			population++
		}
	}
	if population > len(tab) || population < len(tab)/2 {
		t.Errorf("%d keys fill %d of %d slots", n, population, len(tab))
	}
	for _, i := range []int{n - 2, n - 1} {
		if ent, ok := key(i).load(tab); !ok || (i%2 == 1) != (ent.err != nil) {
			t.Errorf("key %d: the latest store does not load back", i)
		}
	}
	other := key(n - 1)
	other.desc = mips.NewDecoder().Desc()
	if _, ok := other.load(tab); ok {
		t.Error("another machine's key hit")
	}
}

// rtWorkerIdle returns once the background compiler has finished every
// job queued before the call: it queues one with no text, which
// compiles nothing, and waits for its delivery.
func rtWorkerIdle() {
	rtWorkerOnce.Do(rtWorkerStart)
	mb := &rtMailbox{}
	rtWorkQueue <- &rtJob{dec: sparc.NewDecoder(), mb: mb}
	for !mb.has.Load() {
		time.Sleep(time.Millisecond)
	}
}

// TestCompileOncePerProcess runs two CPUs over one program at once, on
// the chained engine and then on the routine tier with the background
// compiler racing them.  A word's compiled forms live on its memo
// entry, so "rtl.compiles" and "rtl.compiles_direct" count each
// distinct word once, however many CPUs and workers ask for it.  The
// CPUs decode through a memo of their own, over a description of
// their own that keys the routine programs apart from every other
// run's, so every first compile of these words is this test's.
func TestCompileOncePerProcess(t *testing.T) {
	cfg := progen.DefaultConfig(5)
	cfg.Routines = 12
	p := progen.MustGenerate(cfg)
	desc := spawn.MustParseDesc(sparc.DescriptionSource)
	newDec := func() *spawn.TableDecoder { return spawn.NewDecoder(spawn.NewMemo(desc, sparc.Glue), nil) }
	text := p.File.Text()
	var words []uint32
	seen := map[uint32]bool{}
	for i := 0; i+4 <= len(text.Data); i += 4 {
		if w := binary.BigEndian.Uint32(text.Data[i:]); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	// Two passes re-derive a word only when another evicted it.
	probe := newDec()
	for range 2 {
		for _, w := range words {
			probe.Decode(w)
		}
	}
	if _, derived := probe.SharingStats(); derived != uint64(len(words)) {
		t.Fatalf("%d derivations for %d distinct words: two of them share a memo slot", derived, len(words))
	}

	dec := newDec()
	if telemetry.Default() == nil {
		defer telemetry.Disable()
	}
	reg := telemetry.Enable()
	rtWorkerIdle() // an earlier test's job may still be compiling
	before := reg.Snapshot().Counters
	for _, eng := range []Engine{EngineChained, EngineRoutine} {
		var wg sync.WaitGroup
		for range 2 {
			cpu := LoadFileWith(dec, p.File, nil)
			cpu.Engine, cpu.RoutineHotThreshold = eng, 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cpu.Run(50_000_000); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	rtWorkerIdle()
	ran := reg.Snapshot().Counters
	if ran["rtl.compiles"] == before["rtl.compiles"] || ran["rtl.compiles_direct"] == before["rtl.compiles_direct"] {
		t.Fatal("the runs compiled nothing")
	}

	// Compiling every distinct word now, and none twice, makes the
	// totals the number of distinct words that have semantics.
	valid := uint64(0)
	for _, w := range words {
		if sem, ok := dec.Decode(w).Sem().(*spawn.InstSem); ok {
			valid++
			sem.Compiled()
			sem.CompiledDirect()
		}
	}
	after := reg.Snapshot().Counters
	for _, name := range []string{"rtl.compiles", "rtl.compiles_direct"} {
		if n := after[name] - before[name]; n != valid {
			t.Errorf("%s counted %d for %d distinct words (%d of them during the runs)", name, n, valid, ran[name]-before[name])
		}
	}
}
