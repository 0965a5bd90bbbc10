package core

import (
	"errors"
	"slices"
	"testing"
)

// ddmin reduces a failing op sequence to a locally minimal one by
// ddmin-style chunk removal. run replays a sequence and returns the index of
// the op that failed with its error, or a nil error. Everything after the
// failing op is cut first; then, for chunk sizes from half the sequence down
// to single ops, each chunk whose removal still fails stays removed. budget
// caps the replays of the chunk passes.
func ddmin[T any](ops []T, run func([]T) (int, error), budget int) []T {
	if idx, err := run(ops); err != nil && idx+1 < len(ops) {
		ops = ops[:idx+1]
	}
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(ops) && budget > 0; {
			cand := make([]T, 0, len(ops)-chunk)
			cand = append(cand, ops[:start]...)
			cand = append(cand, ops[start+chunk:]...)
			budget--
			if _, err := run(cand); err != nil {
				ops = cand // the chunk was irrelevant; keep it removed
			} else {
				start += chunk
			}
		}
	}
	return ops
}

// TestDdminShrinksToTheCause: a synthetic sequence that fails exactly when
// ops x and y are both present shrinks to {x, y}.
func TestDdminShrinksToTheCause(t *testing.T) {
	const x, y = 17, 62
	ops := make([]int, 100)
	for i := range ops {
		ops[i] = i
	}
	run := func(ops []int) (int, error) {
		ix, iy := slices.Index(ops, x), slices.Index(ops, y)
		if ix < 0 || iy < 0 {
			return 0, nil
		}
		return max(ix, iy), errors.New("x and y both present")
	}
	if got := ddmin(ops, run, 400); !slices.Equal(got, []int{x, y}) {
		t.Fatalf("ddmin = %v, want [%d %d]", got, x, y)
	}
}
