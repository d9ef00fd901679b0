package eel_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"eel"
	"eel/internal/pipeline"
	"eel/internal/progen"
)

// shapeDigest hashes every fact a graph's consumers can observe: each
// block's ID, kind, instructions and flags, its Succ and Pred edge IDs
// in order, each edge's endpoints, kind and uneditable flag, and the
// liveness solution.  Liveness is read through the query methods
// alone: LiveBefore at every instruction boundary (the last one is the
// block's live-out) and LiveAtEdge on every edge (its destination's
// live-in), which together cover In and Out of every block, since a
// block without predecessors is never a call surrogate.
func shapeDigest(h hash.Hash, res *eel.AnalysisResult) {
	for _, a := range res.Analyses {
		r := a.Routine
		fmt.Fprintf(h, "routine %s %#x-%#x %v hidden=%v\n", r.Name, r.Start, r.End, r.Entries, r.Hidden)
		g, lv := a.Graph, a.Liveness
		if a.Err != nil {
			fmt.Fprintf(h, "err %v\n", a.Err)
			continue
		}
		fmt.Fprintf(h, "entry=%d exit=%d complete=%v data=%v tail=%#x\n",
			g.Entry.ID, g.Exit.ID, g.Complete, g.HasData, g.UnreachableTail)
		for _, b := range g.Blocks {
			fmt.Fprintf(h, "B%d %s u=%v d=%v ct=%#x", b.ID, b.Kind, b.Uneditable, b.HasData, b.CallTarget)
			for i, in := range b.Insts {
				fmt.Fprintf(h, " %#x:%08x/%v", in.Addr, in.MI.Word(), lv.LiveBefore(b, i))
			}
			fmt.Fprintf(h, " out=%v succ", lv.LiveBefore(b, len(b.Insts)))
			for _, e := range b.Succ {
				fmt.Fprintf(h, " %d", e.ID)
			}
			h.Write([]byte(" pred"))
			for _, e := range b.Pred {
				fmt.Fprintf(h, " %d", e.ID)
			}
			h.Write([]byte("\n"))
		}
		for _, e := range g.Edges {
			fmt.Fprintf(h, "E%d %d->%d %s u=%v live=%v\n", e.ID, e.From.ID, e.To.ID, e.Kind, e.Uneditable, lv.LiveAtEdge(e))
		}
		for _, ij := range g.IndirectJumps {
			fmt.Fprintf(h, "ij %#x B%d resolved=%v table=%#x/%d\n", ij.Addr, ij.Block.ID, ij.Resolved, ij.TableAddr, ij.TableLen)
		}
	}
}

// graphShapeDigests analyzes a fixed progen set — GCC and SunPro, with
// symbols and stripped — twice per program: once fresh, persisting
// every bundle to a disk store, and once on a fresh load through a new
// cache over the reopened store, so every graph and analysis is
// decoded from the analysis cache.  Both runs must hash alike under
// digest; one "name sha256" line per program comes back.
func graphShapeDigests(t *testing.T, digest func(hash.Hash, *eel.AnalysisResult)) []string {
	t.Helper()
	var out []string
	for pers, persName := range []string{progen.GCC: "gcc", progen.SunPro: "sunpro"} {
		for _, strip := range []bool{false, true} {
			for _, seed := range []int64{5, 23} {
				cfg := progen.DefaultConfig(seed)
				cfg.Personality, cfg.Strip, cfg.Routines = progen.Personality(pers), strip, 40
				p, err := progen.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				var sums [2]string
				for run := range sums {
					store, err := pipeline.OpenDiskStore(dir, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					cache := eel.NewAnalysisCache(0)
					cache.SetBackend(store)
					e, err := eel.Load(p.File)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{Workers: 2, Cache: cache})
					if err != nil {
						t.Fatal(err)
					}
					if run == 1 && res.Stats.CacheDiskHits != uint64(res.Stats.Routines) {
						t.Fatalf("seed %d: %d of %d routines decoded from disk", seed, res.Stats.CacheDiskHits, res.Stats.Routines)
					}
					h := sha256.New()
					digest(h, res)
					sums[run] = fmt.Sprintf("%x", h.Sum(nil))
				}
				name := fmt.Sprintf("%s-strip=%v-seed=%d", persName, strip, seed)
				if sums[0] != sums[1] {
					t.Errorf("%s: graphs decoded from the cache differ from fresh ones", name)
				}
				out = append(out, name+" "+sums[0])
			}
		}
	}
	return out
}

// TestGraphShapePinned holds CFG construction, the analysis cache's
// graph codec and liveness fixed: the digests in
// testdata/graph_shape_sha256.txt were recorded when blocks and edges
// were still allocated one at a time and liveness was keyed by block
// pointer, and a change to how graphs are stored must leave every
// observable fact as it was.  The two sunpro seed-23 lines were
// refreshed when blocks began to end at an annul (bn,a, fbn,a): only
// hidden_00010b84, data decoded as code inside one of progen's
// DataRanges, changed.
func TestGraphShapePinned(t *testing.T) {
	checkDigests(t, "testdata/graph_shape_sha256.txt", shapeDigest)
}

// checkDigests compares graphShapeDigests under digest with the lines
// of the named file.
func checkDigests(t *testing.T, file string, digest func(hash.Hash, *eel.AnalysisResult)) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := graphShapeDigests(t, digest)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: digests changed:\n got %s\nwant %s", file,
			strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}
