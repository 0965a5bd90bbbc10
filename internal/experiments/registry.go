package experiments

import (
	"fmt"
	"io"
	"strings"

	"lsasg/internal/stats"
)

// Experiment is one registered paper experiment: a stable id, a short name
// for file names, human-readable context (what it validates and where in the
// paper), and the runner itself. The registry is the single source of truth
// consumed by cmd/dsgexp, the tests, and docs/EXPERIMENTS.md.
type Experiment struct {
	// ID is the stable identifier (E1..E20) used for filtering and file
	// names.
	ID string
	// Name is a short slug (lowercase, hyphenated) for output files.
	Name string
	// Description says what the experiment measures, in one sentence.
	Description string
	// PaperRef names the figure/lemma/theorem of Huq & Ghosh (ICDCS 2017)
	// the experiment validates, or the related work a comparison targets.
	PaperRef string
	// Run executes the experiment at the given scale and returns its table.
	Run func(Scale) *stats.Table
}

// Registry returns every registered experiment in canonical (E1..E20)
// order.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:          "E1",
			Name:        "amf-quality",
			Description: "AMF's approximate median lands within n/2a ranks of the true median.",
			PaperRef:    "Lemma 1 (Algorithm 2, AMF)",
			Run:         E1AMFQuality,
		},
		{
			ID:          "E2",
			Name:        "amf-rounds",
			Description: "AMF's distributed round cost grows as O(h^2) in the skip-list height h.",
			PaperRef:    "Lemma 2/3 (Algorithm 2 round accounting)",
			Run:         E2AMFRounds,
		},
		{
			ID:          "E3",
			Name:        "direct-level",
			Description: "The level of the direct link created for a served pair stays below log_{2a/(a+1)} n.",
			PaperRef:    "Lemma 4",
			Run:         E3DirectLevel,
		},
		{
			ID:          "E4",
			Name:        "height",
			Description: "The skip-graph height after any transformation stays below log_{3/2} n.",
			PaperRef:    "Lemma 5",
			Run:         E4Height,
		},
		{
			ID:          "E5",
			Name:        "working-set-property",
			Description: "Routing distance between previously communicating pairs is O(log T_t(u,v)).",
			PaperRef:    "Theorem 2 (working-set property)",
			Run:         E5WorkingSetProperty,
		},
		{
			ID:          "E6",
			Name:        "routing-vs-ws",
			Description: "Total routing cost stays within a constant factor of the working-set bound WS(σ).",
			PaperRef:    "Theorems 1 + 4",
			Run:         E6RoutingVsWS,
		},
		{
			ID:          "E7",
			Name:        "total-cost-vs-ws",
			Description: "Routing plus transformation cost stays within an O(log n) factor of WS(σ).",
			PaperRef:    "Theorems 3 + 5",
			Run:         E7TotalCostVsWS,
		},
		{
			ID:          "E8",
			Name:        "comparison",
			Description: "Headline study: mean routing distance of DSG vs the static skip graph vs SplayNet.",
			PaperRef:    "§II comparison (Aspnes-Shah skip graph; SplayNet, IPDPS 2013)",
			Run:         E8Comparison,
		},
		{
			ID:          "E9",
			Name:        "temporal-sweep",
			Description: "DSG's advantage over the static graph grows as the working-set size W shrinks.",
			PaperRef:    "§I motivation (temporal locality)",
			Run:         E9TemporalSweep,
		},
		{
			ID:          "E10",
			Name:        "worst-case",
			Description: "Per-request worst case on adversarial traffic: DSG's O(log n) vs SplayNet's amortized-only bound.",
			PaperRef:    "Theorem 2 corollary (a·H per-request bound)",
			Run:         E10WorstCase,
		},
		{
			ID:          "E11",
			Name:        "balance-ablation",
			Description: "Sweep of the a-balance parameter: distance vs transformation rounds vs dummy overhead.",
			PaperRef:    "§IV (a-balance property)",
			Run:         E11BalanceAblation,
		},
		{
			ID:          "E12",
			Name:        "sim-validation",
			Description: "Sequential round accounting cross-checked against distributed CONGEST executions.",
			PaperRef:    "§III model (CONGEST); Appendices B + D",
			Run:         E12SimValidation,
		},
		{
			ID:          "E13",
			Name:        "churn-routing",
			Description: "Routing cost of DSG vs the static skip graph under increasing Poisson churn rates.",
			PaperRef:    "§IV-G (node join/leave); Interlaced churn model",
			Run:         E13ChurnRouting,
		},
		{
			ID:          "E14",
			Name:        "churn-adjustment",
			Description: "Adjustment cost of churn: transformation rounds, balance repairs, and dummy population, invariant-checked.",
			PaperRef:    "§IV-F/G (a-balance maintenance under membership changes)",
			Run:         E14ChurnAdjustment,
		},
		{
			ID:          "E15",
			Name:        "churn-patterns",
			Description: "Churn shape comparison: Poisson turnover vs flash-crowd joins vs correlated departures.",
			PaperRef:    "§IV-G; Aspnes-Shah §5 (fault tolerance of correlated failures)",
			Run:         E15ChurnPatterns,
		},
		{
			ID:          "E16",
			Name:        "join-locality",
			Description: "Per-membership-event adjustment work grows sublinearly in n: joins, leaves, and balance repair are local.",
			PaperRef:    "§IV-F/§IV-G (local self-adjustment); Interlaced (2019) decentralized stabilization",
			Run:         E16JoinLocality,
		},
		{
			ID:          "E18",
			Name:        "sharded-serving",
			Description: "Partitioned serving: throughput scales with shard count while cross-shard routes stay two-leg and a skew-driven rebalancer levels hot shards.",
			PaperRef:    "Aspnes-Shah partitioned key space (Skip Graphs, SODA 2003); Interlaced decentralized partitions; §III serving model",
			Run:         E18ShardedServing,
		},
		{
			ID:          "E19",
			Name:        "kv-workload",
			Description: "KV data plane: YCSB-style get/put/delete/scan mixes served through the sharded service, with put-joins, delete-leaves, and cross-shard scan stitching.",
			PaperRef:    "§III serving model (accesses as σ=(o,k)); Aspnes-Shah resource location (Skip Graphs, SODA 2003); YCSB core workloads (SoCC 2010)",
			Run:         E19KVWorkload,
		},
		{
			ID:          "E20",
			Name:        "crash-availability",
			Description: "Availability under crash failures: contact-time detection, decentralized local repair, and time-to-recovery across failure patterns.",
			PaperRef:    "Rainbow Skip Graph (SODA 2006) contact-time fault discovery; Interlaced decentralized stabilization; §IV-G repair machinery",
			Run:         E20CrashAvailability,
		},
	}
}

// IDs returns the registered experiment ids in canonical order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// ByID looks up one experiment by its id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// FprintRegistry writes the registry listing behind cmd/dsgexp's -list
// flag.
func FprintRegistry(w io.Writer) {
	for _, e := range Registry() {
		fmt.Fprintf(w, "%-4s %-22s %s\n     ref: %s\n", e.ID, e.Name, e.Description, e.PaperRef)
	}
}

// Select parses a comma-separated id filter ("E5,E8", case-insensitive,
// blanks ignored) and returns the matching experiments in canonical order.
// An empty filter selects every experiment; an unknown id is an error.
func Select(filter string) ([]Experiment, error) {
	filter = strings.TrimSpace(filter)
	if filter == "" {
		return Registry(), nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(filter, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if _, ok := ByID(id); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
				id, strings.Join(IDs(), ","))
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range Registry() {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty selection %q", filter)
	}
	return out, nil
}
