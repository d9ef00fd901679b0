package fuzz

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	_ "eel/internal/aout"
	"eel/internal/binfile"
	"eel/internal/progen"
)

// pinnedPrograms generates every program the module's generators are
// pinned on — the fuzz sweep on both machines, the regression configs,
// the fuzz defaults, and progen's personalities and workload flavours
// — and returns one "name image-sha256 source-sha256" line each.
func pinnedPrograms(t *testing.T) []string {
	t.Helper()
	var out []string
	pin := func(name string, f *binfile.File, src string) {
		img, err := binfile.Write(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, fmt.Sprintf("%s %x %x", name, sha256.Sum256(img), sha256.Sum256([]byte(src))))
	}
	fz := func(name string, cfg Config) {
		p, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pin(name, p.File, p.Source)
	}
	pg := func(name string, cfg progen.Config) {
		p, err := progen.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pin(name, p.File, p.Source)
	}

	for _, isa := range []string{"sparc", "mips"} {
		for i := 0; i < 500; i++ {
			cfg := RandConfig(1, i)
			cfg.ISA = isa
			fz(fmt.Sprintf("fuzz-%s-rand-%d", isa, i), cfg)
		}
	}
	for i, cfg := range []Config{
		{Seed: 360, Routines: 4, BodyOps: 1, Continuations: true, Hidden: true},
		{Seed: 4, Routines: 1, BodyOps: 2, Annulled: true},
		{Seed: 41, Routines: 3, BodyOps: 6, Calls: true, Windows: true},
		{Seed: 11, Routines: 5, BodyOps: 8, Calls: true, Windows: true, Traps: true, Mem: true, MulDiv: true},
	} {
		fz(fmt.Sprintf("fuzz-regression-%d", i), cfg)
	}
	for seed := int64(1); seed <= 8; seed++ {
		fz(fmt.Sprintf("fuzz-default-%d", seed), DefaultConfig(seed))
	}

	flavours := []struct {
		name string
		set  func(c *progen.Config)
	}{
		{"gcc", func(c *progen.Config) {}},
		{"sunpro", func(c *progen.Config) { c.Personality = progen.SunPro }},
		{"sunpro-strip", func(c *progen.Config) { c.Personality, c.Strip = progen.SunPro, true }},
		{"callheavy-hot3", func(c *progen.Config) { c.CallHeavy, c.HotLoop = true, 3 }},
		{"memheavy", func(c *progen.Config) { c.MemHeavy = true }},
		{"selfmod", func(c *progen.Config) { c.SelfMod = true }},
		{"plain-labels", func(c *progen.Config) { c.MultiEntry, c.DebugLabels = false, false }},
		{"mips", func(c *progen.Config) { c.ISA = "mips" }},
		{"mips-callheavy", func(c *progen.Config) { c.ISA, c.CallHeavy = "mips", true }},
		{"mips-nodata", func(c *progen.Config) { c.ISA, c.DataTables = "mips", false }},
	}
	for _, fl := range flavours {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := progen.DefaultConfig(seed)
			fl.set(&cfg)
			pg(fmt.Sprintf("progen-%s-%d", fl.name, seed), cfg)
		}
	}
	return out
}

// TestGeneratorsPinned holds every generator's output fixed: the
// digests in testdata/generators_sha256.txt are those of the images
// and sources the generators produced when the file was written.  The
// benchmark corpus pins progen's bytes and the fuzz regressions pin
// fuzz's, so a refactor of either generator must reproduce every
// byte of both.
func TestGeneratorsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/generators_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := pinnedPrograms(t)
	if len(got) != len(want) {
		t.Fatalf("pinned %d programs, digest file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("program changed:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d programs changed in all", bad)
	}
}
