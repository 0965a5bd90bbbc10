package core

import (
	"testing"

	"lsasg/internal/amf"
	"lsasg/internal/skipgraph"
)

// TestSplitNegativeInterleavesBoundarylessGroup pins the one positional rule
// of splitNegative (DESIGN.md §3.1): a straddling group too big to move
// whole, with no recorded D-flag boundary, is halved by alternating its
// members in key order. Neither half then holds two key-adjacent members of
// the group — the longest same-side run inside gs is 1, where halving by
// position made two runs of |gs|/2 — and the 0-side still gets ⌈|gs|/2⌉, so
// the split makes the same progress.
func TestSplitNegativeInterleavesBoundarylessGroup(t *testing.T) {
	const clock, group, dl = 1000, 1, 0
	for _, size := range []int{3, 4, 7, 64} {
		ctx := &transformCtx{t: clock, m: size}
		real := make([]int, size)
		for i := range real {
			// One group in the band [-group·t, -group·t + t), no D flag set.
			real[i] = ctx.add(skipgraph.NewNode(skipgraph.KeyOf(int64(i)), int64(i)), &nodeState{G: []int64{group}})
			ctx.ents[i].pri = amf.Finite(-group*clock + int64(i))
		}
		M := amf.Finite(-group*clock + int64(size/2))
		(&DSG{}).splitNegative(ctx, real, dl, M, MedianResult{Median: M})

		zeros, run, longest := 0, 0, 0
		for i, o := range real {
			e := ctx.ents[o]
			if !e.inGs {
				t.Fatalf("|gs|=%d: member %d is not in the straddling group", size, i)
			}
			if e.inZero {
				zeros++
			}
			if i > 0 && e.inZero == ctx.ents[real[i-1]].inZero {
				run++
			} else {
				run = 1
			}
			longest = max(longest, run)
		}
		if longest != 1 || zeros != (size+1)/2 {
			t.Errorf("|gs|=%d: longest same-side run %d, %d members on the 0-side; want 1 and %d",
				size, longest, zeros, (size+1)/2)
		}
	}
}
