// Command dsgctl is the reference wire client for a dsgserve daemon: the
// synchronous KV surface, the admin verbs, and a pipelined trace replay
// whose stats columns reproduce an in-process run byte-for-byte.
//
// Usage:
//
//	dsgctl -addr :4600 put 3 29 hello    # put key 29 from origin 3
//	dsgctl get 7 29                      # read key 29 from origin 7
//	dsgctl delete 3 29                   # tracked leave
//	dsgctl scan 0 24 8                   # up to 8 entries from key ≥ 24
//	dsgctl route 3 17                    # serve one communication request
//	dsgctl stats                         # cumulative service statistics
//	dsgctl replay -len 512 -trace-seed 7 # seeded trace, deterministic columns
//	dsgctl trace -limit 8                # p50/p99 per verb + slowest spans
//	dsgctl crash 4 | verify | addnode | removenode 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"lsasg/internal/obs"
	"lsasg/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dsgctl [-addr host:port] <get|put|delete|scan|route|stats|replay|trace|crash|verify|addnode|removenode> [args]")
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsgctl: "+format+"\n", args...)
	os.Exit(1)
}

func argInt(args []string, i int, name string) int {
	if i >= len(args) {
		fail("missing argument %s", name)
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		fail("argument %s: %v", name, err)
	}
	return v
}

func main() {
	addr := flag.String("addr", "127.0.0.1:4600", "daemon address")
	traceN := flag.Int("n", 256, "replay: the daemon's keyspace size")
	traceLen := flag.Int("len", 512, "replay: trace length")
	traceSeed := flag.Int64("trace-seed", 1, "replay: trace seed")
	spanLimit := flag.Int("limit", 16, "trace: max spans to dump (0 for all retained)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	// Accept flags on either side of the subcommand (`dsgctl -limit 8 trace`
	// and `dsgctl trace -limit 8` both work): re-parse what follows it.
	if err := flag.CommandLine.Parse(args); err != nil {
		usage()
	}
	args = flag.CommandLine.Args()

	cl, err := wire.DialClient(*addr)
	if err != nil {
		fail("%v", err)
	}
	defer cl.Close()

	switch cmd {
	case "get":
		src, key := argInt(args, 0, "src"), argInt(args, 1, "key")
		val, ver, found, err := cl.Get(src, key)
		if err != nil {
			fail("%v", err)
		}
		if !found {
			fmt.Printf("key %d: not found\n", key)
			return
		}
		fmt.Printf("key %d = %q (v%d)\n", key, val, ver)
	case "put":
		src, key := argInt(args, 0, "src"), argInt(args, 1, "key")
		if len(args) < 3 {
			fail("missing argument value")
		}
		ver, existed, err := cl.Put(src, key, []byte(args[2]))
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("key %d = v%d (existed=%v)\n", key, ver, existed)
	case "delete":
		src, key := argInt(args, 0, "src"), argInt(args, 1, "key")
		existed, err := cl.Delete(src, key)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("key %d deleted (existed=%v)\n", key, existed)
	case "scan":
		src, start, limit := argInt(args, 0, "src"), argInt(args, 1, "start"), argInt(args, 2, "limit")
		kvs, err := cl.Scan(src, start, limit)
		if err != nil {
			fail("%v", err)
		}
		for _, kv := range kvs {
			fmt.Printf("%d\t%q\tv%d\n", kv.Key, kv.Value, kv.Version)
		}
		fmt.Printf("(%d entries)\n", len(kvs))
	case "route":
		src, dst := argInt(args, 0, "src"), argInt(args, 1, "dst")
		resp, err := cl.Route(src, dst)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("routed %d→%d: distance %d, %d hops\n", src, dst, resp.Distance, resp.Hops)
	case "stats":
		st, err := cl.Stats()
		if err != nil {
			fail("%v", err)
		}
		printStats(st)
	case "replay":
		ops := wire.ReplayTrace(*traceN, *traceLen, *traceSeed)
		resps, st, err := cl.Replay(ops)
		if err != nil {
			fail("%v", err)
		}
		failures := 0
		for _, r := range resps {
			if r.Code != wire.CodeOK {
				failures++
			}
		}
		fmt.Printf("replayed %d ops (%d failed)\n", len(resps), failures)
		fmt.Printf("columns: %s\n", wire.StatsColumns(st.Cum))
		printStats(st)
	case "trace":
		spans, lats, err := cl.TraceDump(*spanLimit)
		if err != nil {
			fail("%v", err)
		}
		for _, l := range lats {
			if l.Count == 0 {
				continue
			}
			fmt.Printf("%-7s n=%-8d p50=%-12v p99=%v\n", obs.KindName(l.Kind),
				l.Count, time.Duration(l.P50Nanos), time.Duration(l.P99Nanos))
		}
		for i, s := range spans {
			kind := obs.KindName(s.Kind)
			mark := ""
			if s.Cross {
				mark = " cross"
			}
			if s.RouteMiss {
				mark += " miss"
			}
			fmt.Printf("#%d seq=%d %s %d→%d total=%v epoch=%d dist=%d hops=%d%s\n",
				i+1, s.Seq, kind, s.Src, s.Dst, time.Duration(s.TotalNanos),
				s.Epoch, s.RouteDistance, s.RouteHops, mark)
			for _, leg := range s.Legs {
				fmt.Printf("    leg shard=%d dist=%d hops=%d epoch=%d %v\n",
					leg.Shard, leg.Distance, leg.Hops, leg.Epoch, time.Duration(leg.Nanos))
			}
		}
		fmt.Printf("(%d spans)\n", len(spans))
	case "crash":
		if err := cl.Crash(argInt(args, 0, "node")); err != nil {
			fail("%v", err)
		}
		fmt.Println("crashed")
	case "verify":
		if err := cl.Verify(); err != nil {
			fail("%v", err)
		}
		fmt.Println("ok")
	case "addnode":
		idx, err := cl.AddNode()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("joined node %d\n", idx)
	case "removenode":
		if err := cl.RemoveNode(argInt(args, 0, "node")); err != nil {
			fail("%v", err)
		}
		fmt.Println("removed")
	default:
		usage()
	}
}

func printStats(st wire.StatsPayload) {
	c := st.Cum
	fmt.Printf("cumulative: %d requests, mean distance %.3f (max %d), %d transform rounds, height %d, %d dummies\n",
		c.Requests, c.MeanRouteDistance, c.MaxRouteDistance, c.TotalTransformRounds, c.Height, c.DummyCount)
	if c.Shards > 1 {
		fmt.Printf("            %d shards, %d cross-shard requests, %d rebalances (%d keys)\n",
			c.Shards, c.CrossShardRequests, c.Rebalances, c.MigratedKeys)
	}
	if c.Gets+c.Puts+c.Deletes+c.Scans > 0 {
		fmt.Printf("            kv: %d gets (%d hits), %d puts (%d joins), %d deletes (%d hits), %d scans (%d entries)\n",
			c.Gets, c.GetHits, c.Puts, c.PutInserts, c.Deletes, c.DeleteHits, c.Scans, c.ScannedEntries)
	}
}
