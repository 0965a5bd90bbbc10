package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Parameterized is implemented by generators with tunable knobs. The knob
// map feeds the machine-readable experiment output so result rows carry the
// full workload configuration, not just a display name.
type Parameterized interface {
	// Params returns the generator's knobs (excluding the seed).
	Params() map[string]float64
}

// Params implements Parameterized (no knobs besides the seed).
func (Uniform) Params() map[string]float64 { return map[string]float64{} }

// Params implements Parameterized.
func (g Zipf) Params() map[string]float64 { return map[string]float64{"s": g.S} }

// Params implements Parameterized.
func (g RepeatedPairs) Params() map[string]float64 {
	return map[string]float64{"k": float64(g.K), "hot": g.Hot}
}

// Params implements Parameterized.
func (g Temporal) Params() map[string]float64 {
	return map[string]float64{"w": float64(g.W), "churn": g.Churn}
}

// Params implements Parameterized.
func (g Clustered) Params() map[string]float64 {
	return map[string]float64{"c": float64(g.C), "local": g.Local}
}

// Params implements Parameterized (the schedule is fully seed-determined).
func (Adversarial) Params() map[string]float64 { return map[string]float64{} }

// Params implements Parameterized (churn knobs plus the base generator's).
func (g PoissonChurn) Params() map[string]float64 {
	p := map[string]float64{"rate": g.Rate}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized.
func (g FlashCrowd) Params() map[string]float64 {
	p := map[string]float64{"period": float64(g.Period), "burst": float64(g.Burst)}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized.
func (g CorrelatedDepartures) Params() map[string]float64 {
	p := map[string]float64{"period": float64(g.Period), "burst": float64(g.Burst)}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized.
func (g IndependentCrashes) Params() map[string]float64 {
	p := map[string]float64{"rate": g.Rate, "stale": g.Stale}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized.
func (g CorrelatedCrashes) Params() map[string]float64 {
	p := map[string]float64{"period": float64(g.Period), "burst": float64(g.Burst), "stale": g.Stale}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized.
func (g FlashFailure) Params() map[string]float64 {
	p := map[string]float64{"frac": g.Frac, "stale": g.Stale}
	mergeBaseParams(p, g.base())
	return p
}

// Params implements Parameterized (delegates to the base generator).
func (g NoChurn) Params() map[string]float64 {
	p := map[string]float64{}
	mergeBaseParams(p, g.base())
	return p
}

// mergeBaseParams folds a base generator's knobs into p under a "base."
// prefix so churn and traffic parameters never collide.
func mergeBaseParams(p map[string]float64, base Generator) {
	bp, ok := base.(Parameterized)
	if !ok {
		return
	}
	for k, v := range bp.Params() {
		p["base."+k] = v
	}
}

// ParamString renders a generator's knobs as a canonical "k1=v1 k2=v2"
// string with sorted keys (empty for knob-free generators). Experiment
// result rows carry it next to the display name so output files record the
// full workload configuration. It accepts both Generator and TraceGenerator
// values — anything implementing Parameterized.
func ParamString(g interface{}) string {
	p, ok := g.(Parameterized)
	if !ok {
		return ""
	}
	params := p.Params()
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, params[k])
	}
	return strings.Join(parts, " ")
}

// Suite returns the canonical battery of generators used by the comparison
// experiments (E6, E8): one representative of every traffic class the
// paper's introduction motivates, all deterministic for the given seed.
func Suite(seed int64) []Generator {
	return []Generator{
		Uniform{Seed: seed},
		Zipf{Seed: seed, S: 1.2},
		Zipf{Seed: seed, S: 1.6},
		RepeatedPairs{Seed: seed, K: 4, Hot: 0.9},
		Temporal{Seed: seed, W: 8, Churn: 0.1},
		Clustered{Seed: seed, C: 8, Local: 0.9},
		Adversarial{Seed: seed},
	}
}
