// Package activemem reimplements Active Memory (paper §1, §5), the
// EEL-based memory-system simulation platform of Lebeck and Wood:
// every load and store is preceded by an inline test of the accessed
// location's cache state, so cache simulation costs a 2-7× slowdown
// instead of the orders of magnitude of trace post-processing.
//
// The inserted test simulates a direct-mapped cache entirely
// branch-free and condition-code-free (a miss is computed as
// ((old-tag XOR new-tag) | -(old-tag XOR new-tag)) >> 31), so the
// snippet never needs the Blizzard cc-alternative body and can be
// placed anywhere.
package activemem

import (
	"fmt"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// Config sets the simulated cache's geometry.
type Config struct {
	// LineBytes is the cache line size (power of two).
	LineBytes int
	// Sets is the number of direct-mapped sets (power of two).
	Sets int
}

// DefaultConfig is a 4 KB direct-mapped cache with 16-byte lines.
func DefaultConfig() Config { return Config{LineBytes: 16, Sets: 256} }

// Result describes the instrumented executable.
type Result struct {
	// Accesses/Misses are the counter addresses in the edited image.
	AccessCtr, MissCtr uint32
	// Tags is the simulated tag array's base address.
	Tags uint32
	// Sites is the number of instrumented memory instructions.
	Sites int
	// SiteAddrs lists the original addresses of instrumented memory
	// instructions (tests replay them against a golden cache model).
	SiteAddrs []uint32
	cfg       Config
}

// lineShift returns log2(LineBytes).
func (c Config) lineShift() (uint32, error) {
	s := uint32(0)
	for v := c.LineBytes; v > 1; v >>= 1 {
		if v&1 != 0 {
			return 0, fmt.Errorf("activemem: line size %d not a power of two", c.LineBytes)
		}
		s++
	}
	return s, nil
}

// Instrument inserts the cache test before every load and store in
// every routine of e.
func Instrument(e *core.Executable, cc Config) (*Result, error) {
	shift, err := cc.lineShift()
	if err != nil {
		return nil, err
	}
	if cc.Sets&(cc.Sets-1) != 0 || cc.Sets > 1024 {
		return nil, fmt.Errorf("activemem: sets must be a power of two <= 1024")
	}
	res := &Result{cfg: cc}
	res.AccessCtr = e.AllocData(4)
	res.MissCtr = e.AllocData(4)
	res.Tags = e.AllocData(4 * cc.Sets)

	err = e.EachRoutine(func(r *core.Routine) error {
		g, err := r.ControlFlowGraph()
		if err != nil {
			return fmt.Errorf("activemem: %s: %w", r.Name, err)
		}
		if err := instrumentGraph(r, g, res, shift); err != nil {
			return err
		}
		return r.ProduceEditedRoutine()
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func instrumentGraph(r *core.Routine, g *cfg.Graph, res *Result, shift uint32) error {
	for _, b := range g.Blocks {
		if b.Uneditable {
			continue
		}
		for i, in := range b.Insts {
			if !in.MI.Category().IsMemory() {
				continue
			}
			snip, err := testSnippet(g.ABI(), in.MI, res, shift)
			if err != nil {
				return err
			}
			if err := r.AddCodeBefore(b, i, snip); err != nil {
				return fmt.Errorf("activemem: %s at %#x: %w", r.Name, in.Addr, err)
			}
			res.Sites++
			res.SiteAddrs = append(res.SiteAddrs, in.Addr)
		}
	}
	return nil
}

// testSnippet builds the per-site cache test.  The first instruction
// recomputes the access's effective address from the instrumented
// instruction's own registers (the per-site customization of the
// paper's Fig 2); the rest is shared.
func testSnippet(abi *machine.ABI, inst *machine.Inst, res *Result, shift uint32) (*core.Snippet, error) {
	phs, err := core.PickPlaceholders(abi, inst, 4)
	if err != nil {
		return nil, err
	}
	p1, p2, p3, p4 := phs[0], phs[1], phs[2], phs[3]
	var words []uint32
	emit := func(w uint32, err error) error {
		if err != nil {
			return err
		}
		words = append(words, w)
		return nil
	}
	a, ok := inst.Addr()
	if !ok {
		return nil, fmt.Errorf("activemem: %s has no address operand", inst)
	}
	// 1: effective address into p1.
	if err := emit(sparc.EncodeAddr("add", p1, a)); err != nil {
		return nil, err
	}
	steps := []func() error{
		// 2: block number.
		func() error { return emit(sparc.EncodeOp3Imm("srl", p1, p1, int32(shift))) },
		// 3-4: set index, scaled.
		func() error { return emit(sparc.EncodeOp3Imm("and", p2, p1, int32(res.cfg.Sets-1))) },
		func() error { return emit(sparc.EncodeOp3Imm("sll", p2, p2, 2)) },
		// 5-6: tag array base.
		func() error { return emit(sparc.EncodeSethi(p3, res.Tags)) },
		func() error { return emit(sparc.EncodeOp3Imm("or", p3, p3, int32(sparc.Lo(res.Tags)))) },
		// 7: old tag.
		func() error { return emit(sparc.EncodeOp3("ld", p4, p3, p2)) },
		// 8: store new tag (same value on a hit: harmless).
		func() error { return emit(sparc.EncodeOp3("st", p1, p3, p2)) },
		// 9-12: miss = ((old^new) | -(old^new)) >> 31, branch-free.
		func() error { return emit(sparc.EncodeOp3("xor", p4, p4, p1)) },
		func() error { return emit(sparc.EncodeOp3("sub", p2, 0, p4)) },
		func() error { return emit(sparc.EncodeOp3("or", p4, p4, p2)) },
		func() error { return emit(sparc.EncodeOp3Imm("srl", p4, p4, 31)) },
		// 13-16: misses += miss.
		func() error { return emit(sparc.EncodeSethi(p2, res.MissCtr)) },
		func() error { return emit(sparc.EncodeOp3Imm("ld", p3, p2, int32(sparc.Lo(res.MissCtr)))) },
		func() error { return emit(sparc.EncodeOp3("add", p3, p3, p4)) },
		func() error { return emit(sparc.EncodeOp3Imm("st", p3, p2, int32(sparc.Lo(res.MissCtr)))) },
		// 17-20: accesses++.
		func() error { return emit(sparc.EncodeSethi(p2, res.AccessCtr)) },
		func() error { return emit(sparc.EncodeOp3Imm("ld", p3, p2, int32(sparc.Lo(res.AccessCtr)))) },
		func() error { return emit(sparc.EncodeOp3Imm("add", p3, p3, 1)) },
		func() error { return emit(sparc.EncodeOp3Imm("st", p3, p2, int32(sparc.Lo(res.AccessCtr)))) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return core.NewSnippet(words, []machine.Reg{p1, p2, p3, p4}), nil
}

// Counts reads the access and miss counters from an executed image.
func (r *Result) Counts(mem *sim.Memory) (accesses, misses uint64) {
	return uint64(mem.Read32(r.AccessCtr)), uint64(mem.Read32(r.MissCtr))
}
