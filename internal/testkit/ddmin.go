// Package testkit is the replay machinery the randomized tests share: a
// ddmin shrinker, a model of the KV key space and a reader of the corpses a
// graph holds. It imports no package of this module, so the in-package tests
// of core and skipgraph can use it without an import cycle, and only _test.go
// files import it (CI's lint job fails when the library, a command or the
// benchmark depends on it).
//
// Test-only names that stay in production code, because tests in other
// packages need what only the defining package can reach:
//   - core.DSG.SetStateForTest and SetClockForTest set a node's DSG state and
//     the logical clock, which are unexported;
//   - skipgraph.NewFromVectors builds a graph from given membership vectors
//     through the unexported relinkPartial, which the paper's figures with
//     partial vectors need.
package testkit

// Ddmin reduces a failing op sequence to a locally minimal one by
// ddmin-style chunk removal. run replays a sequence and returns the index of
// the op that failed with its error, or a nil error. Everything after the
// failing op is cut first; then, for chunk sizes from half the sequence down
// to single ops, each chunk whose removal still fails stays removed. budget
// caps the replays of the chunk passes.
func Ddmin[T any](ops []T, run func([]T) (int, error), budget int) []T {
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
