package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"eel/internal/machine"
	"eel/internal/progen"
)

// rtProgDigest hashes the block structure of the routine program
// compiled at entry: each block's base, body length, terminator pc
// (0 for a block that falls through) and whether a delay slot runs
// after it, or the compile's error and blamed pc.  A block's cost is
// its body, plus one for a terminator, plus one for a slot.
func rtProgDigest(c *CPU, entry uint32) string {
	var ent *rtCacheEnt
	if end, ok := c.rtExtent(entry); !ok || end <= entry {
		ent = &rtCacheEnt{err: fmt.Errorf("no routine extent at %#x", entry)}
	} else {
		text := make([]byte, end-entry)
		c.Mem.ReadSegment(entry, text)
		ent = rtCompileText(c.dec, text, entry)
	}
	if ent.prog == nil {
		return fmt.Sprintf("%#x err %v at %#x\n", entry, ent.err, ent.pc)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%#x:", entry)
	for _, blk := range ent.prog.blocks {
		n := uint64(len(blk.words))
		var term uint32
		if blk.cost > n {
			term = blk.base + 4*uint32(n)
		}
		fmt.Fprintf(&b, " %#x/%d/%#x/%v", blk.base, n, term, blk.cost > n+1)
	}
	b.WriteString("\n")
	return b.String()
}

// TestRoutineProgramsPinned holds the routine tier's block partition
// fixed: it runs the benchmark's four verify flavours and the SunPro
// personality, seeds 1–6, on the routine tier, then recompiles every
// routine the run installed, every entry still a candidate and every
// direct call target in the text, and hashes each program's blocks
// (rtProgDigest).  The digests in
// testdata/routine_programs_sha256.txt were recorded when the tier
// found its own block leaders instead of compiling the CFG's blocks.
func TestRoutineProgramsPinned(t *testing.T) {
	flavours := []struct {
		name string
		cfg  func(seed int64) progen.Config
	}{
		{"medium", func(seed int64) progen.Config {
			c := progen.DefaultConfig(seed)
			c.Routines = 60
			return c
		}},
		{"loopheavy", func(seed int64) progen.Config {
			c := progen.DefaultConfig(seed)
			c.HotLoop = 3
			return c
		}},
		{"callheavy", func(seed int64) progen.Config {
			c := progen.DefaultConfig(seed)
			c.Routines, c.CallHeavy, c.HotLoop = 30, true, 3
			return c
		}},
		{"memhot", func(seed int64) progen.Config {
			c := progen.DefaultConfig(seed)
			c.MemHeavy, c.HotLoop = true, 3
			return c
		}},
		{"sunpro", func(seed int64) progen.Config {
			c := progen.DefaultConfig(seed)
			c.Personality = progen.SunPro
			return c
		}},
	}
	var got []string
	for _, fl := range flavours {
		for seed := int64(1); seed <= 6; seed++ {
			p, err := progen.Generate(fl.cfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			cpu, _ := runRoutineMode(t, p.File)
			entries := map[uint32]bool{}
			for i := range cpu.rt.words {
				w, pc := &cpu.rt.words[i], cpu.rt.base+4*uint32(i)
				if w.prog != nil {
					entries[w.prog.base] = true
				}
				if w.cand {
					entries[pc] = true
				}
				in := cpu.dec.Decode(cpu.Mem.Read32(pc))
				if tg, ok := in.StaticTarget(pc); ok && in.Category() == machine.CatCallDirect && cpu.rt.word(tg) != nil {
					entries[tg] = true
				}
			}
			sorted := make([]uint32, 0, len(entries))
			for e := range entries {
				sorted = append(sorted, e)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			h := sha256.New()
			for _, e := range sorted {
				h.Write([]byte(rtProgDigest(cpu, e)))
			}
			got = append(got, fmt.Sprintf("%s-seed=%d %d %x", fl.name, seed, len(sorted), h.Sum(nil)))
		}
	}
	const file = "testdata/routine_programs_sha256.txt"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: digests changed:\n got %s\nwant %s", file,
			strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}
