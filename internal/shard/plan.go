package shard

// migrationPlan is one planner decision: move the contiguous key range
// [Lo, Hi) from shard From into the adjacent shard To.
type migrationPlan struct {
	From, To int
	Lo, Hi   int64
	// MovedLoad is the window load carried by the range (diagnostic).
	MovedLoad int64
}

// planRebalance decides at most one migration from the load window. Inputs:
// the directory in force during the window and the per-key endpoint counts.
//
// The decision rule: compute per-shard loads (key loads in range); if the
// hottest shard exceeds skewThreshold × mean, donate keys to its lighter-loaded
// adjacent neighbour, walking per-key load in from the donated edge until
// half the pairwise load gap has moved (at least one key, and never below
// minShardKeys remaining). Donating from the adjacent edge is what keeps both
// shards' ranges contiguous. A plan is only emitted when the walked keys
// actually carry load.
func planRebalance(dir *Directory, keyLoad []int64) (migrationPlan, bool) {
	s := dir.Shards()
	if s < 2 {
		return migrationPlan{}, false
	}
	loads := make([]int64, s)
	var total int64
	for i := 0; i < s; i++ {
		lo, hi := dir.Range(i)
		for k := lo; k < hi; k++ {
			loads[i] += keyLoad[k]
		}
		total += loads[i]
	}
	if total == 0 {
		return migrationPlan{}, false
	}
	h := 0
	for i := 1; i < s; i++ {
		if loads[i] > loads[h] {
			h = i
		}
	}
	mean := float64(total) / float64(s)
	if float64(loads[h]) < skewThreshold*mean {
		return migrationPlan{}, false
	}
	// Lighter adjacent neighbour (ties toward the left, deterministically).
	t := -1
	if h > 0 {
		t = h - 1
	}
	if h+1 < s && (t < 0 || loads[h+1] < loads[t]) {
		t = h + 1
	}
	if t < 0 || loads[t] >= loads[h] {
		return migrationPlan{}, false
	}
	delta := (loads[h] - loads[t]) / 2
	if delta <= 0 {
		return migrationPlan{}, false
	}

	lo, hi := dir.Range(h)
	maxMove := (hi - lo) - minShardKeys
	if maxMove < 1 {
		return migrationPlan{}, false
	}
	gap := loads[h] - loads[t]
	var moved, count int64
	// Walk in from the donated edge until half the gap has moved. step(i)
	// yields the i-th key from that edge.
	step := func(i int64) int64 { return hi - 1 - i } // top edge downward
	if t == h-1 {
		step = func(i int64) int64 { return lo + i } // bottom edge upward
	}
	for count < maxMove && moved < delta {
		moved += keyLoad[step(count)]
		count++
	}
	// Moving load `moved` changes the pairwise gap to |gap − 2·moved|, so
	// the plan improves the balance only while 0 < moved < gap. A single
	// edge key carrying more than the whole gap would otherwise just invert
	// the imbalance and ping-pong back next window; shed keys from the
	// inner end of the walk until the move converges, or give up.
	for count > 0 && moved >= gap {
		count--
		moved -= keyLoad[step(count)]
	}
	if count == 0 || moved == 0 {
		return migrationPlan{}, false
	}
	if t == h-1 {
		return migrationPlan{From: h, To: t, Lo: lo, Hi: lo + count, MovedLoad: moved}, true
	}
	return migrationPlan{From: h, To: t, Lo: hi - count, Hi: hi, MovedLoad: moved}, true
}

// boundaryAfter returns the directory boundary index and new start key that
// realize the plan: moving a top range into the right neighbour shifts that
// neighbour's start down; moving a bottom range into the left neighbour
// shifts the donor's start up.
func (p migrationPlan) boundaryAfter() (index int, start int64) {
	if p.To == p.From+1 {
		return p.To, p.Lo
	}
	return p.From, p.Hi
}
