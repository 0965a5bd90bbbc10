package main

import (
	"flag"
	"fmt"
	"testing"

	"lsasg"
	"lsasg/internal/workload"
)

// crudOps is the daemon benchmark's CRUD workload in miniature: a self-access
// preload of every key, then m ops of the CRUD mix over Zipf(1.2) popularity.
func crudOps(t *testing.T, n, m int) []lsasg.Op {
	t.Helper()
	tr, err := workload.KVMix{Seed: 1, Mix: workload.MixCRUD, Base: workload.Zipf{Seed: 1, S: 1.2}}.Trace(n, m)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]lsasg.Op, 0, n+m)
	for k := 0; k < n; k++ {
		ops = append(ops, lsasg.PutOp(k, k, []byte("preload")))
	}
	for i, e := range tr[len(tr)-m:] {
		src, dst := int(e.Src), int(e.Dst)
		switch e.Op {
		case workload.OpGet:
			ops = append(ops, lsasg.GetOp(src, dst))
		case workload.OpPut:
			ops = append(ops, lsasg.PutOp(src, dst, []byte(fmt.Sprintf("v%d", i))))
		case workload.OpDelete:
			ops = append(ops, lsasg.DeleteOp(src, dst))
		case workload.OpScan:
			ops = append(ops, lsasg.ScanOp(src, dst, e.Limit))
		default:
			t.Fatalf("unexpected %v in a KV trace", e)
		}
	}
	return ops
}

func statsAfter(t *testing.T, n int, ops []lsasg.Op, opts ...lsasg.Option) lsasg.Stats {
	t.Helper()
	svc, err := lsasg.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if _, err := svc.Do(op); err != nil {
			t.Fatalf("%+v: %v", op, err)
		}
	}
	return svc.Stats()
}

// TestDefaultLoadWindowDoesNotThrash: a daemon started with no -window serves
// exactly what the library's default serves — the load window has one default,
// in one place — and that default does not migrate a key range per request;
// a load window of one op, which the daemon's default used to be, still does
// what it says.
func TestDefaultLoadWindowDoesNotThrash(t *testing.T) {
	const n, m = 512, 600
	ops := crudOps(t, n, m)

	fs := flag.NewFlagSet("dsgserve", flag.ContinueOnError)
	flags := registerServiceFlags(fs)
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	library := statsAfter(t, n, ops, lsasg.WithSeed(1), lsasg.WithShards(4))
	daemon := statsAfter(t, n, ops, flags.options()...)
	if daemon != library {
		t.Fatalf("the daemon's zero flags and the library's defaults disagree:\n daemon  %+v\n library %+v", daemon, library)
	}
	if daemon.Requests != n+m || daemon.Rebalances > 2 {
		t.Fatalf("default load window: %d rebalances moving %d keys over %d requests, want ≤ 2",
			daemon.Rebalances, daemon.MigratedKeys, daemon.Requests)
	}

	if err := fs.Parse([]string{"-window", "1"}); err != nil {
		t.Fatal(err)
	}
	perOp := statsAfter(t, n, ops, flags.options()...)
	t.Logf("%d requests: %d migrations of %d keys at the default window, %d of %d at -window 1",
		daemon.Requests, daemon.Rebalances, daemon.MigratedKeys, perOp.Rebalances, perOp.MigratedKeys)
	if perOp.Rebalances < 10*max(daemon.Rebalances, 1) {
		t.Fatalf("-window 1: %d rebalances against %d at the default; the flag is being ignored",
			perOp.Rebalances, daemon.Rebalances)
	}
}
