package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func allGenerators() []Generator {
	return []Generator{
		Uniform{Seed: 1},
		Zipf{Seed: 2, S: 1.2},
		RepeatedPairs{Seed: 3, K: 4, Hot: 0.9},
		Temporal{Seed: 4, W: 8, Churn: 0.1},
		Clustered{Seed: 5, C: 4, Local: 0.8},
		Adversarial{Seed: 6},
		HotRange{Seed: 7, LoFrac: 0, HiFrac: 0.125, Hot: 0.85},
	}
}

// TestHotRangeConcentration: the hot fraction of requests stays inside the
// configured contiguous range, and the defaults kick in for a degenerate
// range.
func TestHotRangeConcentration(t *testing.T) {
	const n, m = 64, 4000
	g := HotRange{Seed: 11, LoFrac: 0, HiFrac: 0.125, Hot: 0.85}
	reqs := g.Generate(n, m)
	inHot := 0
	for _, r := range reqs {
		if r.Src < 8 && r.Dst < 8 {
			inHot++
		}
	}
	frac := float64(inHot) / float64(m)
	if frac < 0.75 || frac > 0.95 {
		t.Errorf("hot fraction %.3f, want ≈ 0.85", frac)
	}
	// Degenerate fractions fall back to the default eighth.
	d := HotRange{Seed: 12, LoFrac: 0.5, HiFrac: 0.5, Hot: 1}
	for i, r := range d.Generate(n, 100) {
		if r.Src >= 8 || r.Dst >= 8 {
			t.Fatalf("default range: request %d = %+v escapes [0, 8)", i, r)
		}
	}
}

func TestGeneratorsProduceValidRequests(t *testing.T) {
	const n, m = 50, 500
	for _, g := range allGenerators() {
		reqs := g.Generate(n, m)
		if len(reqs) != m {
			t.Fatalf("%s: %d requests, want %d", g.Name(), len(reqs), m)
		}
		for i, r := range reqs {
			if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
				t.Fatalf("%s[%d]: out of range %+v", g.Name(), i, r)
			}
			if r.Src == r.Dst {
				t.Fatalf("%s[%d]: self request", g.Name(), i)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range allGenerators() {
		a := g.Generate(30, 100)
		b := g.Generate(30, 100)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", g.Name(), i)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	reqs := Zipf{Seed: 7, S: 1.5}.Generate(100, 5000)
	counts := make(map[int]int)
	for _, r := range reqs {
		counts[r.Src]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	// The hottest node should receive far more than the uniform share.
	if maxC < 3*5000/100 {
		t.Errorf("max source count %d too uniform for Zipf(1.5)", maxC)
	}
}

func TestRepeatedPairsHotFraction(t *testing.T) {
	g := RepeatedPairs{Seed: 8, K: 1, Hot: 1.0}
	reqs := g.Generate(64, 200)
	first := reqs[0]
	for i, r := range reqs {
		if r != first {
			t.Fatalf("hot=1.0 k=1 produced a different pair at %d: %+v", i, r)
		}
	}
}

func TestTemporalLocality(t *testing.T) {
	// With no churn, all requests stay within the initial W-node set.
	g := Temporal{Seed: 9, W: 5, Churn: 0}
	reqs := g.Generate(100, 400)
	seen := make(map[int]bool)
	for _, r := range reqs {
		seen[r.Src] = true
		seen[r.Dst] = true
	}
	if len(seen) > 5 {
		t.Fatalf("temporal workload touched %d nodes, want ≤ 5", len(seen))
	}
}

func TestClusteredLocality(t *testing.T) {
	g := Clustered{Seed: 10, C: 5, Local: 1.0}
	reqs := g.Generate(100, 1000)
	// Rebuild community assignment exactly as the generator does.
	comm := make(map[int]int)
	// Local=1.0 means every request is intra-community; we verify by
	// transitivity: union endpoints and check the number of components
	// is at least C.
	parent := make([]int, 100)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, r := range reqs {
		parent[find(r.Src)] = find(r.Dst)
	}
	comps := make(map[int]bool)
	for i := range parent {
		comps[find(i)] = true
	}
	if len(comps) < 5 {
		t.Errorf("fully local clustered workload merged into %d components, want ≥ 5", len(comps))
	}
	_ = comm
}

func TestAdversarialCoversManyPairs(t *testing.T) {
	g := Adversarial{Seed: 11}
	reqs := g.Generate(32, 1000)
	pairs := make(map[Request]bool)
	for _, r := range reqs {
		pairs[r] = true
	}
	if len(pairs) < 500 {
		t.Errorf("adversarial workload repeated pairs too much: %d distinct", len(pairs))
	}
}

func TestZipfWeights(t *testing.T) {
	ws := ZipfWeights(10, 1.0)
	var sum float64
	for i := 1; i < len(ws); i++ {
		if ws[i] > ws[i-1] {
			t.Fatal("weights not decreasing")
		}
	}
	for _, w := range ws {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %f", sum)
	}
}

func TestGenerateQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 2
		m := int(mRaw % 100)
		reqs := Uniform{Seed: seed}.Generate(n, m)
		if len(reqs) != m {
			return false
		}
		for _, r := range reqs {
			if r.Src == r.Dst || r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Uniform{}.Generate(1, 10)
}

// ZipfWeights returns normalized Zipf weights for ranks 1..n with exponent s.
func ZipfWeights(n int, s float64) []float64 {
	ws := make([]float64, n)
	var sum float64
	for i := range ws {
		ws[i] = 1 / math.Pow(float64(i+1), s)
		sum += ws[i]
	}
	for i := range ws {
		ws[i] /= sum
	}
	return ws
}
