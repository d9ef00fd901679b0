package eel_test

import (
	"fmt"
	"hash"
	"testing"

	"eel"
	"eel/internal/dataflow"
)

// analysesDigest hashes the dominator and loop facts of every routine:
// each block's immediate dominator's ID (-1 for none) and loop depth,
// and each loop's head, sorted body IDs and back-edge IDs.
func analysesDigest(h hash.Hash, res *eel.AnalysisResult) {
	for _, a := range res.Analyses {
		r := a.Routine
		fmt.Fprintf(h, "routine %s %#x-%#x\n", r.Name, r.Start, r.End)
		if a.Err != nil {
			fmt.Fprintf(h, "err %v\n", a.Err)
			continue
		}
		depth := dataflow.LoopDepth(a.Graph, a.Loops)
		for _, b := range a.Graph.Blocks {
			idom := -1
			if d := a.IDom.IDom(b); d != nil {
				idom = d.ID
			}
			fmt.Fprintf(h, "B%d idom=%d depth=%d\n", b.ID, idom, depth[b.ID])
		}
		for _, l := range a.Loops {
			var back []int
			for _, e := range l.BackEdges {
				back = append(back, e.ID)
			}
			fmt.Fprintf(h, "loop B%d body=%v back=%v\n", l.Head.ID, l.Body.IDs(), back)
		}
	}
}

// TestAnalysesPinned holds dominators, natural loops and loop depth
// fixed, fresh and decoded from a disk-backed cache, against
// testdata/analysis_sha256.txt; the digests were recorded while both
// analyses were still keyed by block pointer.
func TestAnalysesPinned(t *testing.T) {
	checkDigests(t, "testdata/analysis_sha256.txt", analysesDigest)
}
