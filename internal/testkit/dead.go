package testkit

import "iter"

// DeadIDs returns the ids of the dead nodes among nodes, in their order: the
// corpses a graph still holds, read off its node walk.
func DeadIDs[N interface {
	ID() int64
	Dead() bool
}](nodes iter.Seq[N]) []int64 {
	var ids []int64
	for n := range nodes {
		if n.Dead() {
			ids = append(ids, n.ID())
		}
	}
	return ids
}
