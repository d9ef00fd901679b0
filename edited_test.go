package eel_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"eel"
	"eel/internal/progen"
	"eel/internal/qpt"
)

// editedDigests runs qpt2's Full instrumentation (pipeline analysis,
// then qpt.Instrument and BuildEdited) over a fixed progen set — GCC
// and SunPro, with symbols and stripped, all with dispatch tables,
// embedded data and hidden routines — and returns one "name sha256"
// line per edited image.
func editedDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	for pers, persName := range []string{progen.GCC: "gcc", progen.SunPro: "sunpro"} {
		for _, strip := range []bool{false, true} {
			for _, seed := range []int64{3, 17} {
				cfg := progen.DefaultConfig(seed)
				cfg.Personality, cfg.Strip, cfg.Routines = progen.Personality(pers), strip, 48
				p, err := progen.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p.Switches == 0 || p.Hidden == 0 {
					t.Fatalf("seed %d: %d switches, %d hidden routines", seed, p.Switches, p.Hidden)
				}
				e, err := eel.Load(p.File)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eel.AnalyzeAll(e, eel.AnalysisOptions{Workers: 2}); err != nil {
					t.Fatal(err)
				}
				if _, err := qpt.Instrument(e, qpt.Full); err != nil {
					t.Fatal(err)
				}
				ed, err := e.BuildEdited()
				if err != nil {
					t.Fatal(err)
				}
				img, err := eel.WriteImage(ed)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("%s-strip=%v-seed=%d %x", persName, strip, seed, sha256.Sum256(img)))
			}
		}
	}
	return out
}

// TestEditedBytesPinned holds the editor's output fixed: the digests
// in testdata/edited_sha256.txt were recorded before instruction
// targets were folded at decode time and text was predecoded, and
// those changes, like any pure speed-up, must leave every edited byte
// as it was.
func TestEditedBytesPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/edited_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := editedDigests(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("edited images changed:\n got %s\nwant %s",
			strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// editAllocCeiling bounds the heap allocations of one full edit of the
// TestEditAllocs binary: the measured 7,385-7,386 plus about 0.2%,
// because a collection that starts during the edit empties the
// standard library's pools (fmt's printer cache among them) and
// refilling them costs a few allocations more.  Lower it when a change saves
// allocations.
const editAllocCeiling = 7400

// TestEditAllocs gates the edit path's allocation count, which is
// deterministic up to that slack, so a regression shows as a number.
// The decoders of one process share a memo of derived words, so what
// an edit allocates depends on what the process decoded before; the
// count is taken from a defined state instead, after AllocsPerRun's
// warm-up edit of the same input has put its words in the memo.
func TestEditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	cfg := progen.DefaultConfig(7)
	cfg.Routines = 60
	p, err := progen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		e, err := eel.Load(p.File)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eel.AnalyzeAll(e, eel.AnalysisOptions{NoDominators: true, NoLoops: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := qpt.Instrument(e, qpt.Full); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildEdited(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per edit (ceiling %d)", n, editAllocCeiling)
	if n > editAllocCeiling {
		t.Errorf("an edit allocates %.0f times, over the ceiling of %d", n, editAllocCeiling)
	}
}

// loadAllocs is the exact allocation count of TestLoadAllocs's load.
const loadAllocs = 251

// TestLoadAllocs pins what opening an executable allocates: nothing
// per word for decoding its text, whose instructions the process-wide
// memo holds, and one pass over its direct transfers.  The count is
// exact once a warm-up load has put the image's words in the memo.
func TestLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	cfg := progen.DefaultConfig(7)
	cfg.Routines = 60
	p, err := progen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var e *eel.Executable
	n := testing.AllocsPerRun(5, func() {
		if e, err = eel.Load(p.File); err != nil {
			t.Fatal(err)
		}
	})
	decodes, _ := e.Dec.SharingStats()
	t.Logf("%.0f allocations per load, %d decodes", n, decodes)
	if n != loadAllocs {
		t.Errorf("a load allocates %.0f times, want exactly %d", n, loadAllocs)
	}
}
