// Emulator profiling hooks: per-pc and per-superblock hotness plus
// branch/annul/trap counters, collected while a program runs under
// either execution engine.  The data is what cmd/eelprof turns into a
// qpt-style hot-routine / hot-block profile — the paper's headline
// application family, measured from the inside.
package sim

import (
	"eel/internal/machine"
	"eel/internal/telemetry"
)

// Profile accumulates execution hotness while attached to a CPU (see
// CPU.EnableProfile).  Counts cover executed (non-annulled)
// instructions only and are identical under the translation-cache
// engine and the single-step interpreter — annulled slots are skipped
// by the shared pipeline-advance in both.
type Profile struct {
	textStart uint32
	pc        []uint64 // executions per word in [TextStart, TextEnd)

	// blockEnters counts entries into each translated superblock (by
	// anchor pc).  Empty when the CPU ran on EngineInterp.
	blockEnters map[uint32]uint64

	// Branches counts executed conditional branches; BranchesTaken
	// the subset that transferred control.  Traps counts executed
	// system (trap) instructions.
	Branches      uint64
	BranchesTaken uint64
	Traps         uint64
}

// EnableProfile attaches (and returns) a fresh profile sized to the
// CPU's current [TextStart, TextEnd) window.  Call it after loading
// the program; calling again discards the previous profile.
// Profiling costs one predictable branch per executed instruction
// when disabled, and one array increment when enabled.
func (c *CPU) EnableProfile() *Profile {
	p := &Profile{
		textStart:   c.TextStart,
		blockEnters: map[uint32]uint64{},
	}
	if c.TextEnd > c.TextStart {
		p.pc = make([]uint64, (c.TextEnd-c.TextStart+3)/4)
	}
	c.prof = p
	return p
}

// record notes one executed instruction; transfer reports whether it
// scheduled a control transfer (immediate or delayed).
func (p *Profile) record(pc uint32, inst *machine.Inst, transfer bool) {
	if i := (pc - p.textStart) >> 2; int(i) < len(p.pc) {
		p.pc[i]++
	}
	switch inst.Category() {
	case machine.CatBranch:
		p.Branches++
		if transfer {
			p.BranchesTaken++
		}
	case machine.CatSystem:
		p.Traps++
	}
}

// PCCount returns how many times the instruction at pc executed.
func (p *Profile) PCCount(pc uint32) uint64 {
	i := (pc - p.textStart) >> 2
	if int(i) >= len(p.pc) {
		return 0
	}
	return p.pc[i]
}

// Range calls fn for every profiled pc with a nonzero count, in
// ascending address order.
func (p *Profile) Range(fn func(pc uint32, count uint64)) {
	for i, n := range p.pc {
		if n != 0 {
			fn(p.textStart+uint32(i)*4, n)
		}
	}
}

// Publish exports the profile's distributions into reg: log-scale
// hotness histograms over per-pc and per-superblock counts
// ("sim.profile.pc_hotness", "sim.profile.block_hotness") and the
// branch/trap counters.  A nil registry is a no-op.
func (p *Profile) Publish(reg *telemetry.Registry) {
	if reg == nil || p == nil {
		return
	}
	pcHist := reg.Histogram("sim.profile.pc_hotness")
	for _, n := range p.pc {
		if n != 0 {
			pcHist.Observe(n)
		}
	}
	blockHist := reg.Histogram("sim.profile.block_hotness")
	for _, n := range p.blockEnters {
		blockHist.Observe(n)
	}
	reg.Counter("sim.profile.branches").Add(p.Branches)
	reg.Counter("sim.profile.branches_taken").Add(p.BranchesTaken)
	reg.Counter("sim.profile.traps").Add(p.Traps)
}
