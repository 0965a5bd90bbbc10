package shard

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lsasg/internal/core"
)

// applyWithin runs Apply on its own goroutine and returns a channel that
// delivers its error once it returns.
func applyWithin(svc *Service, op core.Op) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := svc.Apply(op)
		done <- err
	}()
	return done
}

// TestApplyAnswersBeforeAdjusting: at S = 4, Apply of one op returns with
// its shard's adjustment still to run. The next op, on another shard, is
// served while that adjustment is held; an op on the same shard waits for
// it. Once everything has settled, the books and the topology are those of
// the same ops adjusted before each answer.
func TestApplyAnswersBeforeAdjusting(t *testing.T) {
	const n = 64 // 16 keys a shard
	ops := []core.Op{
		core.RouteOp(1, 9),   // shard 0
		core.RouteOp(20, 28), // shard 1
		core.RouteOp(2, 12),  // shard 0 again
	}
	svc, err := New(n, Config{Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	first := true
	svc.beforeTail = func(shard int) {
		// Shard 0's tails run one after another, each settled before the
		// next starts, so they read and write first in turn.
		if shard == 0 && first {
			first = false
			close(held)
			<-release
		}
	}

	o, err := svc.Apply(ops[0])
	if err != nil {
		t.Fatal(err)
	}
	if o.RouteDistance == 0 || o.TransformRounds != 0 || o.Alpha != 0 {
		t.Errorf("outcome %+v: want the route measured and no adjustment reported", o)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 0's adjustment never started behind the answer")
	}

	select {
	case err := <-applyWithin(svc, ops[1]):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an op on shard 1 waited for shard 0's adjustment")
	}

	same := applyWithin(svc, ops[2])
	select {
	case err := <-same:
		t.Fatalf("an op on shard 0 was served before shard 0's held adjustment settled (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-same; err != nil {
		t.Fatal(err)
	}

	inline, err := New(n, Config{Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if _, err := inline.ApplyAdjusted(op); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := svc.Totals(), inline.Totals(); got != want {
		t.Errorf("books %+v, adjusted before each answer %+v", got, want)
	}
	var got, want bytes.Buffer
	svc.RenderTopology(&got)
	inline.RenderTopology(&want)
	if got.String() != want.String() {
		t.Error("the topology differs from the one adjusted before each answer")
	}
}

// plantCorruption gives key 10 of shard 0 (of 64 keys over 4 shards) a
// timestamp below its group base, as TestValidateDetectsCorruption plants
// one: every link stays intact, so only the full validator sees it.
func plantCorruption(t *testing.T, svc *Service) {
	t.Helper()
	d := svc.shards[0].dsg
	x := d.NodeByID(10)
	depth := x.BitsLen()
	groups := make([]int64, depth+1)
	for i := range groups {
		groups[i] = d.Group(x, i)
	}
	ts := make([]int64, depth)
	ts[depth-1] = 99
	d.SetStateForTest(x, ts, groups, nil, depth)
	if err := d.Validate(); err == nil {
		t.Fatal("the planted timestamp is not a violation")
	}
}

// TestVerifyRunsTheFullValidator: Verify is core.DSG.Validate on every
// shard, so a corrupted node state — every link intact — fails it, where
// nothing else looks.
func TestVerifyRunsTheFullValidator(t *testing.T) {
	for _, shards := range []int{1, 4} {
		svc, err := New(64, Config{Shards: shards, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Verify(); err != nil {
			t.Fatalf("s=%d: fresh service: %v", shards, err)
		}
		plantCorruption(t, svc)
		if err := svc.Verify(); err == nil || !strings.Contains(err.Error(), "node 10") {
			t.Errorf("s=%d: Verify = %v, want the planted state of node 10", shards, err)
		}
	}
}
