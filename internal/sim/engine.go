package sim

import (
	"fmt"
	"strings"
)

// Engine selects the execution tier Run uses.  Every tier produces
// bit-identical architected behaviour; they differ in speed and in
// what they let an observer see.  The zero value is the chained
// engine, so a CPU from New or LoadFile runs chained unless told
// otherwise.  *Engine is a flag.Value, so an -engine flag parses
// through Set and rejects unknown names at parse time.
type Engine uint8

const (
	// EngineChained runs the translation cache with block chaining
	// and indirect-jump inline caches, and promotes hot blocks in
	// place onto direct-commit op lists.
	EngineChained Engine = iota
	// EngineRoutine adds the routine tier on top of the chained
	// engine: hot routine entries are compiled whole (CFG + liveness,
	// each instruction lowered from its semantics by rtl) on a
	// background goroutine and run with registers and flags resident
	// across block boundaries.  It runs as chained while OnExec
	// observes execution and while a profile is attached (both need
	// per-step visibility).
	EngineRoutine
	// EngineTranslated keeps the translation cache but returns to the
	// dispatcher at every superblock exit and promotes no hot blocks:
	// the baseline for measuring dispatch overhead and for bisecting
	// engines.
	EngineTranslated
	// EngineInterp single-steps the AST interpreter.
	EngineInterp
)

// The engine names, as String and ParseEngine spell them.
const (
	ChainedName    = "chained"
	RoutineName    = "routine"
	TranslatedName = "translated"
	InterpName     = "interp"
)

var engineNames = [...]string{
	EngineChained:    ChainedName,
	EngineRoutine:    RoutineName,
	EngineTranslated: TranslatedName,
	EngineInterp:     InterpName,
}

// EngineNames lists every engine name, in Engine order.
func EngineNames() []string { return append([]string(nil), engineNames[:]...) }

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine returns the engine called name.
func ParseEngine(name string) (Engine, error) {
	for e, n := range engineNames {
		if n == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want one of %s)", name, strings.Join(engineNames[:], ", "))
}

// Set implements flag.Value.
func (e *Engine) Set(name string) error {
	v, err := ParseEngine(name)
	if err == nil {
		*e = v
	}
	return err
}

// chains reports whether e keeps control inside translated code
// across block boundaries and promotes hot blocks.
func (e Engine) chains() bool { return e <= EngineRoutine }
