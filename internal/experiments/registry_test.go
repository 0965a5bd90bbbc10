package experiments

import (
	"strconv"
	"strings"
	"testing"

	"lsasg/internal/stats"
)

func TestRegistryWellFormed(t *testing.T) {
	reg := Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(reg))
	}
	// E1..E20 in order, without E17: retired, its id not reused.
	seenID := map[string]bool{}
	seenName := map[string]bool{}
	next := 1
	for i, e := range reg {
		if next == 17 {
			next++
		}
		want := "E" + strconv.Itoa(next)
		next++
		if e.ID != want {
			t.Errorf("entry %d has id %q, want %s", i, e.ID, want)
		}
		if seenID[e.ID] || seenName[e.Name] {
			t.Errorf("duplicate id/name %q/%q", e.ID, e.Name)
		}
		seenID[e.ID], seenName[e.Name] = true, true
		if e.Name == "" || e.Description == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("%s: incomplete registry entry %+v", e.ID, e)
		}
		if strings.ToLower(e.Name) != e.Name || strings.ContainsAny(e.Name, " _") {
			t.Errorf("%s: name %q is not a lowercase hyphenated slug", e.ID, e.Name)
		}
	}
}

func TestByIDAndSelect(t *testing.T) {
	if e, ok := ByID("e8"); !ok || e.ID != "E8" {
		t.Errorf("ByID(e8) = %v, %v", e, ok)
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should fail")
	}
	if _, ok := ByID("E17"); ok {
		t.Error("ByID(E17) should fail: the experiment is retired")
	}

	all, err := Select("")
	if err != nil || len(all) != 19 {
		t.Errorf("Select(\"\") = %d experiments, err %v", len(all), err)
	}
	if _, ok := ByID("E20"); !ok {
		t.Error("ByID(E20) should resolve the crash-availability experiment")
	}
	if e, ok := ByID("E19"); !ok || e.Name != "kv-workload" {
		t.Errorf("ByID(E19) = %v, %v; should resolve the KV-workload experiment", e, ok)
	}
	some, err := Select(" e8, E5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].ID != "E5" || some[1].ID != "E8" {
		t.Errorf("Select should return canonical order, got %v", some)
	}
	if _, err := Select("E1,bogus"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestSeedForIndependence(t *testing.T) {
	// Distinct experiments draw from distinct streams; repeats advance by 1.
	if seedFor(1, "E1", 0) == seedFor(1, "E2", 0) {
		t.Error("E1 and E2 share a seed stream")
	}
	if seedFor(1, "E1", 1) != seedFor(1, "E1", 0)+1 {
		t.Error("repeat seeds should be consecutive")
	}
	if seedFor(1, "E1", 0) != seedFor(1, "E1", 0) {
		t.Error("seedFor is not deterministic")
	}
}

func TestRunRepeatsAndAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	e, _ := ByID("E1")
	cfg := RunConfig{Scale: Quick(), Repeats: 2}
	res, err := Run(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 || res.Seeds[0] == res.Seeds[1] {
		t.Errorf("seeds = %v, want 2 distinct", res.Seeds)
	}
	if len(res.Repeats) != 2 {
		t.Fatalf("got %d repeat tables", len(res.Repeats))
	}
	// Aggregation doubles numeric columns with an "sd" companion.
	found := false
	for _, c := range res.Table.Columns {
		if strings.HasSuffix(c, " sd") {
			found = true
		}
	}
	if !found {
		t.Errorf("aggregate table lacks sd columns: %v", res.Table.Columns)
	}
	rep := res.Report(cfg)
	if rep.ID != "E1" || rep.RepeatCount != 2 || rep.Rows != res.Table.NumRows() || rep.Table == nil {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	bad := Experiment{ID: "EX", Name: "boom", Description: "d", PaperRef: "p",
		Run: func(Scale) *stats.Table { panic("kaboom") }}
	_, err := Run(bad, RunConfig{Scale: Quick()})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic should surface as error, got %v", err)
	}
}
