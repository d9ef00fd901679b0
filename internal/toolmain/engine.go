package toolmain

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"eel/internal/sim"
)

// Engine names as plain strings, for callers that carry an engine as
// text (see ConfigureEngine).
const (
	EngineInterp     = sim.InterpName
	EngineTranslated = sim.TranslatedName
	EngineChained    = sim.ChainedName
	EngineRoutine    = sim.RoutineName
)

// AddEngine registers -engine on fs and returns where its value
// lands.  An unknown name fails flag parsing.  The default is the
// routine tier: every tier produces bit-identical architected
// behaviour, so tools default to the fastest one.
func AddEngine(fs *flag.FlagSet) *sim.Engine {
	e := sim.EngineRoutine
	fs.Var(&e, "engine", "execution `engine`: "+strings.Join(sim.EngineNames(), ", "))
	return &e
}

// ConfigureEngine sets cpu to execute with the named tier.  An
// unknown name is an error and leaves cpu unchanged.
func ConfigureEngine(cpu *sim.CPU, name string) error {
	e, err := sim.ParseEngine(name)
	if err != nil {
		return err
	}
	cpu.Engine = e
	return nil
}

// WriteEngineStats prints one run's emulator engine counters — the
// -stats report of the tools that execute.  Every line starts with
// "jit", so engine-sensitive output stays strippable when comparing
// reports across engines.
func WriteEngineStats(w io.Writer, label string, k sim.Counters) {
	fmt.Fprintf(w, "jit %s: blocks %d, flushes %d, deopts %d, chain-hit %.1f%% (%d/%d), ic-hit %.1f%% (%d/%d), victim-hits %d, traces %d (%d retired)\n",
		label, k.Builds, k.Flushes, k.Deopts,
		hitPct(k.ChainHits, k.ChainMisses), k.ChainHits, k.ChainHits+k.ChainMisses,
		hitPct(k.ICHits, k.ICMisses), k.ICHits, k.ICHits+k.ICMisses,
		k.VictimHits, k.Traces, k.TracesRetired)
	if k.TierPromotions > 0 {
		fmt.Fprintf(w, "jit %s: routines %d compiled (%d promotions), routine-deopts %d\n",
			label, k.RoutinesCompiled, k.TierPromotions, k.RoutineDeopts)
	}
}

func hitPct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
