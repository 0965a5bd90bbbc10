package wire

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsasg"
)

// BenchmarkWireLoopback times the daemon's serving layer end to end: a live
// Server over a preloaded lsasg.New(256) on 127.0.0.1, each connection
// running closed-loop scans — scan(0, k, 1..16), which never reach the
// adjuster, so the frame codec, the service lock and the socket round trip
// are most of the op. ns/op is wall time per op across all connections.
// Recorded in CI, not gated: loopback timing swings with the runner.
func BenchmarkWireLoopback(b *testing.B) {
	const n = 256
	for _, conns := range []int{1, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			nw, err := lsasg.New(n, lsasg.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < n; k++ {
				if _, _, err := nw.Put((k+1)%n, k, make([]byte, 16)); err != nil {
					b.Fatal(err)
				}
			}
			srv := NewServer(nw)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(lis)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			cls := make([]*Client, conns)
			for i := range cls {
				if cls[i], err = DialClient(lis.Addr().String(), WithPoolSize(1)); err != nil {
					b.Fatal(err)
				}
				defer cls[i].Close()
			}

			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for i, cl := range cls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					for next.Add(1) <= int64(b.N) {
						if _, err := cl.Scan(0, rng.Intn(n), 1+rng.Intn(16)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
