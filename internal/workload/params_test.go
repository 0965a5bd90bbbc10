package workload

import "testing"

// TestParamsAndDescribe: ParamString renders a generator's knobs in key
// order, and nothing for a generator without any.
func TestParamsAndDescribe(t *testing.T) {
	cases := []struct {
		g    Generator
		want string
	}{
		{Uniform{Seed: 1}, ""},
		{Zipf{Seed: 1, S: 1.2}, "s=1.2"},
		{RepeatedPairs{Seed: 1, K: 4, Hot: 0.9}, "hot=0.9 k=4"},
		{Temporal{Seed: 1, W: 8, Churn: 0.1}, "churn=0.1 w=8"},
		{Clustered{Seed: 1, C: 8, Local: 0.9}, "c=8 local=0.9"},
		{Adversarial{Seed: 1}, ""},
	}
	for _, c := range cases {
		if got := ParamString(c.g); got != c.want {
			t.Errorf("ParamString(%T) = %q, want %q", c.g, got, c.want)
		}
	}
}

func TestSuite(t *testing.T) {
	suite := Suite(7)
	if len(suite) < 6 {
		t.Fatalf("suite has %d generators, want at least 6", len(suite))
	}
	seen := map[string]bool{}
	for _, g := range suite {
		name := g.Name()
		if seen[name] {
			t.Errorf("duplicate generator %q in suite", name)
		}
		seen[name] = true
		if _, ok := g.(Parameterized); !ok {
			t.Errorf("%q does not implement Parameterized", name)
		}
		reqs := g.Generate(16, 50)
		if len(reqs) != 50 {
			t.Errorf("%q generated %d requests, want 50", name, len(reqs))
		}
	}
}
