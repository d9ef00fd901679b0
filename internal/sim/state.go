package sim

import (
	"fmt"
	"strings"
)

// This file exposes the architected state of a CPU and the contents
// of a Memory in comparable form.  The differential-fuzzing oracles
// (internal/fuzz) and the engine-equivalence tests use these to
// require bit-identical results from the interpreter, the
// translation-cache engine, and edited executables.

// ArchState renders every piece of architected state — registers,
// special registers, the floating-point file, pc/npc, the saved
// register-window stack, and halt status — as a deterministic string.
// Two CPUs that executed the same program on equivalent engines must
// produce identical ArchState strings.
func (c *CPU) ArchState() string {
	var b strings.Builder
	for i, v := range c.R {
		fmt.Fprintf(&b, "r%d=%08x ", i, v)
	}
	fmt.Fprintf(&b, "y=%08x psr=%08x fsr=%08x pc=%08x npc=%08x\n", c.Y, c.PSR, c.FSR, c.PC, c.NPC)
	for i, v := range c.F {
		fmt.Fprintf(&b, "f%d=%08x ", i, v)
	}
	fmt.Fprintf(&b, "\nhalted=%v exit=%d insts=%d annuls=%d windows=%d\n",
		c.Halted, c.ExitCode, c.InstCount, c.AnnulCount, len(c.windows))
	for i, w := range c.windows {
		fmt.Fprintf(&b, "w%d: locals=%08x ins=%08x\n", i, w.Locals, w.Ins)
	}
	return b.String()
}

// Diff compares two memories byte-for-byte (absent pages read as
// zero).  It returns the lowest differing address, or ok=true when
// the memories are identical.
func (m *Memory) Diff(o *Memory) (addr uint32, ok bool) {
	for d := range m.dirs {
		if m.dirs[d] == nil && o.dirs[d] == nil {
			continue
		}
		for k := range dirPages {
			a := uint32(d)<<dirShift | uint32(k)<<pageShift
			pa, pb := m.view(a), o.view(a)
			if pa == pb || *pa == *pb {
				continue
			}
			for i := range pa {
				if pa[i] != pb[i] {
					return a + uint32(i), false
				}
			}
		}
	}
	return 0, true
}
