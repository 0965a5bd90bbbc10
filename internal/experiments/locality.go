package experiments

import (
	"math"
	"math/rand"

	"lsasg/internal/core"
	"lsasg/internal/stats"
)

// E16JoinLocality measures the paper's headline *locality* claim on the
// membership path (§IV-F/§IV-G): a join or leave may only touch the lists
// along its search path plus the repair's knock-on lists, so the work per
// membership event must grow sublinearly in n — where a whole-graph relink
// or balance rescan grows linearly. The work measure is deterministic
// (nodes examined while splicing plus nodes scanned by the scoped balance
// repair), so the CSV is byte-stable per seed like every other experiment.
func E16JoinLocality(sc Scale) *stats.Table {
	t := stats.NewTable("E16 — join/leave locality (scoped work per membership event vs n)",
		"n", "events", "join scan/event", "repair scan/event", "total/event", "total/log2 n", "total/n")
	sizes := sc.LocalitySizes
	if len(sizes) == 0 {
		sizes = sc.Sizes
	}
	for _, n := range sizes {
		d := core.New(n, core.Config{A: 4, Seed: sc.Seed})
		rng := rand.New(rand.NewSource(sc.Seed + int64(n)))
		live := make([]int64, n)
		for i := range live {
			live[i] = int64(i)
		}
		nextID := int64(n)
		j0, r0 := d.LocalityWork()
		events := 0
		for i := 0; i < sc.Requests/2; i++ {
			if _, err := d.Add(nextID); err != nil {
				panic(err)
			}
			live = append(live, nextID)
			nextID++
			events++
			victim := rng.Intn(len(live))
			if err := d.RemoveNode(live[victim]); err != nil {
				panic(err)
			}
			live = append(live[:victim], live[victim+1:]...)
			events++
		}
		j1, r1 := d.LocalityWork()
		join := float64(j1 - j0)
		repair := float64(r1 - r0)
		total := (join + repair) / float64(events)
		t.AddRow(n, events, join/float64(events), repair/float64(events),
			total, total/math.Log2(float64(n)), total/float64(n))
	}
	return t
}
