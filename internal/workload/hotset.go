package workload

import "sort"

// CanonSeed is the seed of the canonical request stream: the popularity
// ranking FixedHotSet relabels every stream onto, and the warm-up stream of
// the served-regime benchmarks.
const CanonSeed = 0x5eed

// FixedHotSet wraps a popularity generator so that which keys are hot does
// not depend on its seed: it relabels the generated endpoints so that the
// k-th most requested key of the stream becomes the k-th most requested key
// of the canonical stream, Zipf(1.2) with CanonSeed and the same length. The
// relabelling is a bijection of the key space, so the request distribution
// is untouched; what the seed still decides is the arrival sequence. It is
// the relabelling the end-to-end benchmark applies to every timed stream.
type FixedHotSet struct{ Inner Generator }

// Name implements Generator.
func (g FixedHotSet) Name() string { return g.Inner.Name() }

// Generate implements Generator.
func (g FixedHotSet) Generate(n, m int) []Request {
	reqs := g.Inner.Generate(n, m)
	canon := popularityOrder(Zipf{Seed: CanonSeed, S: 1.2}.Generate(n, m), n)
	to := make([]int, n)
	for rank, key := range popularityOrder(reqs, n) {
		to[key] = canon[rank]
	}
	for i, r := range reqs {
		reqs[i] = Request{Src: to[r.Src], Dst: to[r.Dst]}
	}
	return reqs
}

// popularityOrder lists the keys from most to least requested (ties by key).
func popularityOrder(reqs []Request, n int) []int {
	count := make([]int, n)
	for _, r := range reqs {
		count[r.Src]++
		count[r.Dst]++
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return count[order[i]] > count[order[j]] })
	return order
}
