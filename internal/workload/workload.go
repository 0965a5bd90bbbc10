package workload

import (
	"fmt"
	"math/rand"
)

// Request is a single source→destination communication request.
type Request struct {
	Src int
	Dst int
}

// Generator produces a request sequence over n nodes.
type Generator interface {
	// Name identifies the generator in experiment tables.
	Name() string
	// Generate returns m requests over node indices [0, n). Implementations
	// panic when (n, m) violates ValidateArgs — the experiment code calls
	// them with compile-time-known sizes, so a bad argument is a programming
	// error there. Callers with untrusted input use the package-level
	// Generate, which validates first and returns an error instead.
	Generate(n, m int) []Request
}

// ValidateArgs reports whether (n, m) is a legal generator input: at least
// two nodes (a request needs distinct endpoints) and a non-negative request
// count.
func ValidateArgs(n, m int) error {
	if n < 2 {
		return fmt.Errorf("workload: need at least 2 nodes, got %d", n)
	}
	if m < 0 {
		return fmt.Errorf("workload: negative request count %d", m)
	}
	return nil
}

func checkArgs(n, m int) {
	if err := ValidateArgs(n, m); err != nil {
		panic(err.Error())
	}
}

// Generate is the error-returning entry point to any generator: it validates
// (n, m) up front and only then invokes g, so callers with runtime-supplied
// sizes never hit the Generator panic contract.
func Generate(g Generator, n, m int) ([]Request, error) {
	if err := ValidateArgs(n, m); err != nil {
		return nil, err
	}
	return g.Generate(n, m), nil
}

// Uniform picks source and destination independently and uniformly.
type Uniform struct {
	Seed int64
}

// Name implements Generator.
func (Uniform) Name() string { return "uniform" }

// Generate implements Generator.
func (g Uniform) Generate(n, m int) []Request {
	checkArgs(n, m)
	rng := rand.New(rand.NewSource(g.Seed))
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dst: dst})
	}
	return reqs
}

// Zipf draws both endpoints from a Zipf distribution with exponent S over a
// random permutation of the nodes, yielding the skewed popularity pattern
// typical of peer-to-peer traffic.
type Zipf struct {
	Seed int64
	S    float64 // exponent, must be > 1
}

// Name implements Generator.
func (g Zipf) Name() string { return fmt.Sprintf("zipf(s=%.2f)", g.S) }

// Generate implements Generator.
func (g Zipf) Generate(n, m int) []Request {
	checkArgs(n, m)
	s := g.S
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(g.Seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	perm := rng.Perm(n)
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		src := perm[int(z.Uint64())]
		dst := perm[int(z.Uint64())]
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dst: dst})
	}
	return reqs
}

// RepeatedPairs selects K disjoint hot pairs; each request picks a hot pair
// with probability Hot, otherwise a uniform random pair. With Hot = 1 and
// K = 1 this is the best case for any self-adjusting topology.
type RepeatedPairs struct {
	Seed int64
	K    int     // number of hot pairs (≥ 1)
	Hot  float64 // probability of drawing a hot pair
}

// Name implements Generator.
func (g RepeatedPairs) Name() string {
	return fmt.Sprintf("pairs(k=%d,hot=%.2f)", g.K, g.Hot)
}

// Generate implements Generator.
func (g RepeatedPairs) Generate(n, m int) []Request {
	checkArgs(n, m)
	k := g.K
	if k < 1 {
		k = 1
	}
	if 2*k > n {
		k = n / 2
	}
	rng := rand.New(rand.NewSource(g.Seed))
	perm := rng.Perm(n)
	pairs := make([]Request, k)
	for i := 0; i < k; i++ {
		pairs[i] = Request{Src: perm[2*i], Dst: perm[2*i+1]}
	}
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		if rng.Float64() < g.Hot {
			reqs = append(reqs, pairs[rng.Intn(k)])
			continue
		}
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dst: dst})
	}
	return reqs
}

// Temporal emulates working-set locality: requests are drawn from a sliding
// set of W currently-active nodes; at each step the active set mutates with
// probability Churn. Small W means strong temporal locality, so the paper's
// working-set bound is small and DSG should win big.
type Temporal struct {
	Seed  int64
	W     int     // working-set size (≥ 2)
	Churn float64 // per-request probability of swapping one active node
}

// Name implements Generator.
func (g Temporal) Name() string { return fmt.Sprintf("temporal(w=%d)", g.W) }

// Generate implements Generator.
func (g Temporal) Generate(n, m int) []Request {
	checkArgs(n, m)
	w := g.W
	if w < 2 {
		w = 2
	}
	if w > n {
		w = n
	}
	rng := rand.New(rand.NewSource(g.Seed))
	perm := rng.Perm(n)
	active := append([]int(nil), perm[:w]...)
	inactive := append([]int(nil), perm[w:]...)
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		if len(inactive) > 0 && rng.Float64() < g.Churn {
			ai := rng.Intn(len(active))
			ii := rng.Intn(len(inactive))
			active[ai], inactive[ii] = inactive[ii], active[ai]
		}
		i := rng.Intn(len(active))
		j := rng.Intn(len(active))
		if i == j {
			continue
		}
		reqs = append(reqs, Request{Src: active[i], Dst: active[j]})
	}
	return reqs
}

// Clustered partitions the nodes into C communities; a request stays inside
// one community with probability Local. This models the rack/data-center
// hierarchy from the paper's conclusion (VM migration use case).
type Clustered struct {
	Seed  int64
	C     int     // number of communities (≥ 1)
	Local float64 // probability that a request is intra-community
}

// Name implements Generator.
func (g Clustered) Name() string {
	return fmt.Sprintf("clustered(c=%d,local=%.2f)", g.C, g.Local)
}

// Generate implements Generator.
func (g Clustered) Generate(n, m int) []Request {
	checkArgs(n, m)
	c := g.C
	if c < 1 {
		c = 1
	}
	if c > n/2 {
		c = n / 2
	}
	rng := rand.New(rand.NewSource(g.Seed))
	perm := rng.Perm(n)
	communities := make([][]int, c)
	for i, p := range perm {
		communities[i%c] = append(communities[i%c], p)
	}
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		var src, dst int
		if rng.Float64() < g.Local {
			comm := communities[rng.Intn(c)]
			src = comm[rng.Intn(len(comm))]
			dst = comm[rng.Intn(len(comm))]
		} else {
			src = rng.Intn(n)
			dst = rng.Intn(n)
		}
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dst: dst})
	}
	return reqs
}

// Adversarial cycles deterministically through all ordered pairs of a random
// permutation in a round-robin order, ensuring every request's working set
// is maximal. No self-adjusting algorithm can beat Θ(log n) per request
// here, making it the stress case for DSG's O(log n) worst-case guarantee.
type Adversarial struct {
	Seed int64
}

// Name implements Generator.
func (Adversarial) Name() string { return "adversarial" }

// Generate implements Generator.
func (g Adversarial) Generate(n, m int) []Request {
	checkArgs(n, m)
	rng := rand.New(rand.NewSource(g.Seed))
	perm := rng.Perm(n)
	reqs := make([]Request, 0, m)
	// Stride through pairs (i, i+stride) with varying stride so consecutive
	// requests share no endpoints and revisit pairs as rarely as possible.
	for stride := 1; len(reqs) < m; stride++ {
		st := stride % (n - 1)
		if st == 0 {
			st = 1
		}
		for i := 0; i < n && len(reqs) < m; i++ {
			j := (i + st) % n
			reqs = append(reqs, Request{Src: perm[i], Dst: perm[j]})
		}
	}
	return reqs
}

// HotRange concentrates traffic on one contiguous key range: with
// probability Hot both endpoints are drawn uniformly from [LoFrac·n,
// HiFrac·n), otherwise uniformly from all nodes. This is the hot-shard
// regime for partitioned deployments — a contiguous range is exactly what a
// range-sharded directory assigns to one shard, so a skew-driven rebalancer
// must split the range to level the load (experiment E18).
type HotRange struct {
	Seed   int64
	LoFrac float64 // start of the hot range as a fraction of n (default 0)
	HiFrac float64 // end of the hot range as a fraction of n (default 0.125)
	Hot    float64 // probability a request stays inside the hot range
}

// Name implements Generator.
func (g HotRange) Name() string {
	lo, hi := g.bounds()
	return fmt.Sprintf("hotrange(%.2f-%.2f,hot=%.2f)", lo, hi, g.Hot)
}

// bounds normalizes the range fractions.
func (g HotRange) bounds() (lo, hi float64) {
	lo, hi = g.LoFrac, g.HiFrac
	if hi <= lo {
		lo, hi = 0, 0.125
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Generate implements Generator.
func (g HotRange) Generate(n, m int) []Request {
	checkArgs(n, m)
	loF, hiF := g.bounds()
	lo := int(loF * float64(n))
	hi := int(hiF * float64(n))
	if hi < lo+2 { // a hot pair needs two distinct keys
		hi = lo + 2
	}
	if hi > n {
		lo, hi = n-2, n
	}
	rng := rand.New(rand.NewSource(g.Seed))
	reqs := make([]Request, 0, m)
	for len(reqs) < m {
		var src, dst int
		if rng.Float64() < g.Hot {
			src = lo + rng.Intn(hi-lo)
			dst = lo + rng.Intn(hi-lo)
		} else {
			src = rng.Intn(n)
			dst = rng.Intn(n)
		}
		if src == dst {
			continue
		}
		reqs = append(reqs, Request{Src: src, Dst: dst})
	}
	return reqs
}
