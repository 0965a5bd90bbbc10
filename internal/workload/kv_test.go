package workload

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseMixNamed(t *testing.T) {
	for name, want := range map[string]MixRatios{
		"a": MixA, "B": MixB, " c ": MixC, "e": MixE, "CRUD": MixCRUD,
	} {
		got, err := ParseMix(name)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", name, got, want)
		}
	}
}

func TestParseMixWeights(t *testing.T) {
	got, err := ParseMix("50:30:10:5:5")
	if err != nil {
		t.Fatal(err)
	}
	want := MixRatios{Read: 50, Update: 30, Insert: 10, Scan: 5, Delete: 5}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	n := got.normalized()
	if n.Read != 0.5 || n.Delete != 0.05 {
		t.Errorf("normalized = %+v", n)
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, s := range []string{"z", "1:2:3", "1:2:3:4:x", "-1:0:0:0:0", "0:0:0:0:0"} {
		if _, err := ParseMix(s); err == nil {
			t.Errorf("ParseMix(%q): expected error", s)
		}
	}
}

func TestMixString(t *testing.T) {
	if s := MixB.String(); s != "r0.95+u0.05" {
		t.Errorf("MixB.String() = %q", s)
	}
	if s := MixE.String(); s != "i0.05+s0.95" {
		t.Errorf("MixE.String() = %q", s)
	}
}

func TestKVMixValidates(t *testing.T) {
	for _, mix := range []MixRatios{MixA, MixB, MixC, MixE, MixCRUD} {
		for _, n := range []int{8, 64, 200} {
			g := KVMix{Seed: 7, Mix: mix}
			tr, err := g.Trace(n, 500)
			if err != nil {
				t.Fatalf("%s n=%d: %v", g.Name(), n, err)
			}
			if err := tr.Validate(n); err != nil {
				t.Fatalf("%s n=%d: %v", g.Name(), n, err)
			}
			gets, puts, deletes, scans := tr.KVCounts()
			if gets+puts+deletes+scans != len(tr) {
				t.Fatalf("%s n=%d: non-KV events in a KV trace", g.Name(), n)
			}
		}
	}
}

func TestKVMixEventCount(t *testing.T) {
	// Exactly m events after the carve-out prefix, which holds only deletes.
	g := KVMix{Seed: 3, Mix: MixE}
	tr, err := g.Trace(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	carve := 0
	for _, e := range tr {
		if e.Op != OpDelete {
			break
		}
		carve++
	}
	if carve != 25 { // insert ratio 0.05 × 1000 = 50, capped at n/4 = 25
		t.Errorf("carve-out = %d, want 25", carve)
	}
	if len(tr)-carve != 1000 {
		t.Errorf("main stream = %d events, want 1000", len(tr)-carve)
	}
	gets, puts, _, scans := tr.KVCounts()
	if gets != 0 {
		t.Errorf("MixE produced %d gets", gets)
	}
	if scans == 0 || puts == 0 {
		t.Errorf("MixE produced %d scans, %d puts", scans, puts)
	}
}

func TestKVMixDeterminism(t *testing.T) {
	a, err := KVMix{Seed: 11, Mix: MixCRUD}.Trace(50, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KVMix{Seed: 11, Mix: MixCRUD}.Trace(50, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := KVMix{Seed: 12, Mix: MixCRUD}.Trace(50, 300)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestKVMixScanLimits(t *testing.T) {
	g := KVMix{Seed: 5, Mix: MixRatios{Scan: 1}, MaxScanLen: 4}
	tr, err := g.Trace(32, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr {
		if e.Op != OpScan {
			t.Fatalf("pure-scan mix produced %s", e)
		}
		if e.Limit < 1 || e.Limit > 4 {
			t.Fatalf("scan limit %d outside [1, 4]", e.Limit)
		}
		if e.Dst < 0 || e.Dst >= 32 {
			t.Fatalf("scan start %d outside [0, 32)", e.Dst)
		}
	}
}

func TestKVMixBadInputs(t *testing.T) {
	if _, err := (KVMix{Mix: MixRatios{Read: -1}}).Trace(10, 10); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := (KVMix{Mix: MixA, MaxScanLen: -2}).Trace(10, 10); err == nil {
		t.Error("negative scan cap accepted")
	}
	if _, err := (KVMix{Mix: MixA}).Trace(1, 10); err == nil {
		t.Error("single-node trace accepted")
	}
}

func TestKVMixNameAndParams(t *testing.T) {
	g := KVMix{Seed: 1, Mix: MixB, Base: Zipf{Seed: 1, S: 1.2}}
	if name := g.Name(); !strings.Contains(name, "r0.95+u0.05") || !strings.Contains(name, "zipf") {
		t.Errorf("Name() = %q", name)
	}
	p := g.Params()
	if p["read"] != 0.95 || p["scanlen"] != 16 || p["base.s"] != 1.2 {
		t.Errorf("Params() = %v", p)
	}
}

func TestValidateKVRules(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		ok   bool
	}{
		{"get-any-target", Trace{{Op: OpGet, Src: 0, Dst: 99}}, true},
		{"get-dead-origin", Trace{{Op: OpGet, Src: 99, Dst: 0}}, false},
		{"put-joins-absent", Trace{
			{Op: OpPut, Src: 0, Dst: 9},
			{Op: OpRoute, Src: 0, Dst: 9},
		}, true},
		{"put-crashed-key", Trace{
			{Op: OpCrash, Node: 2},
			{Op: OpPut, Src: 0, Dst: 2},
		}, false},
		{"delete-then-route-fails", Trace{
			{Op: OpDelete, Src: 0, Dst: 2},
			{Op: OpRoute, Src: 0, Dst: 2},
		}, false},
		{"delete-absent-noop", Trace{
			{Op: OpDelete, Src: 0, Dst: 2},
			{Op: OpDelete, Src: 0, Dst: 2},
		}, true},
		{"delete-below-floor", Trace{
			{Op: OpDelete, Src: 0, Dst: 2},
			{Op: OpDelete, Src: 0, Dst: 1},
		}, false},
		{"delete-crashed-key", Trace{
			{Op: OpCrash, Node: 2},
			{Op: OpDelete, Src: 0, Dst: 2},
		}, false},
		{"scan-zero-limit", Trace{{Op: OpScan, Dst: 0, Limit: 0}}, false},
		{"scan-negative-start", Trace{{Op: OpScan, Dst: -1, Limit: 3}}, false},
		{"scan-ok", Trace{{Op: OpScan, Dst: 2, Limit: 3}}, true},
		{"put-revives-deleted", Trace{
			{Op: OpDelete, Src: 0, Dst: 2},
			{Op: OpPut, Src: 0, Dst: 2},
			{Op: OpRoute, Src: 0, Dst: 2},
		}, true},
	}
	for _, c := range cases {
		err := c.tr.Validate(3)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// KVCounts returns the number of get, put, delete, and scan events.
func (tr Trace) KVCounts() (gets, puts, deletes, scans int) {
	for _, e := range tr {
		switch e.Op {
		case OpGet:
			gets++
		case OpPut:
			puts++
		case OpDelete:
			deletes++
		case OpScan:
			scans++
		}
	}
	return gets, puts, deletes, scans
}
