package testkit

import (
	"errors"
	"slices"
	"testing"
)

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
	if got := Ddmin(ops, run, 400); !slices.Equal(got, []int{x, y}) {
		t.Fatalf("Ddmin = %v, want [%d %d]", got, x, y)
	}
}
