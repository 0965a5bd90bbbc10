// Command dsgserve runs the self-adjusting skip graph as a network daemon:
// one lsasg.Network — a single graph, or -shards partitions of it — behind
// the wire protocol on a TCP port, with Prometheus-text observability on a
// second port, answered one GET per connection (observe.go). Clients speak
// the length-prefixed binary protocol (docs/WIRE.md); cmd/dsgctl is the
// reference client.
//
// The daemon serves one op at a time, in arrival order, and answers each as
// soon as it is served; -window is the rebalancer's load window only — 0, the
// default, keeps the library's (512 ops), and the daemon logs the window in
// effect at start-up — and a replayed trace (dsgctl replay) keeps the
// deterministic-stats contract at any setting. Every daemon serves the
// membership admin verbs (dsgctl addnode / removenode) beside its
// working-set bookkeeping. SIGINT and SIGTERM drain gracefully: in-flight
// requests are answered, then the process exits.
//
// Usage:
//
//	dsgserve                          # 256 keys on :4600, metrics on :4601
//	dsgserve -n 1024 -shards 8        # sharded service
//	dsgserve -addr :7000 -metrics ""  # custom port, observability off
//	dsgserve -seed 7 -balance 3      # deterministic stream, a-balance a=3
//	dsgserve -shards 4 -window 64     # rebalance after every 64 ops
//	dsgserve -pprof                   # runtime profiles under /debug/pprof/
//	dsgserve -trace=false             # drop span/histogram instrumentation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lsasg"
	"lsasg/internal/obs"
	"lsasg/internal/wire"
)

// serviceFlags are the flags that shape the service the daemon builds.
type serviceFlags struct {
	shards, balance, window int
	seed                    int64
	trace                   bool
}

func registerServiceFlags(fs *flag.FlagSet) *serviceFlags {
	f := &serviceFlags{}
	fs.IntVar(&f.shards, "shards", 1, "shard count; 1 is a single graph")
	fs.IntVar(&f.balance, "balance", 0, "a-balance parameter; 0 keeps the default")
	fs.Int64Var(&f.seed, "seed", 1, "seed for the deterministic stream")
	fs.IntVar(&f.window, "window", 0, "requests per load window: the rebalancer runs at its end; 0 keeps the default, logged at start-up")
	fs.BoolVar(&f.trace, "trace", true, "record op spans and latency histograms (TraceDump, dsgctl trace)")
	return f
}

// options maps the parsed flags onto the library's options. A zero -balance
// or -window passes nothing on, so each default lives in the library alone.
func (f *serviceFlags) options() []lsasg.Option {
	opts := []lsasg.Option{lsasg.WithSeed(f.seed), lsasg.WithShards(f.shards)}
	if f.balance > 0 {
		opts = append(opts, lsasg.WithBalance(f.balance))
	}
	if f.window > 0 {
		opts = append(opts, lsasg.WithRebalanceWindow(f.window))
	}
	if f.trace {
		opts = append(opts, lsasg.WithTracing())
	}
	return opts
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsgserve: ")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatal(err)
	}
}

// run builds the service, binds the wire and observability listeners —
// failing before it serves anything if either address is unusable — and
// serves until a signal arrives on stop, then drains.
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("dsgserve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":4600", "TCP address to serve the wire protocol on")
		metricsAddr = fs.String("metrics", ":4601", "HTTP address for /metrics and /healthz; empty disables")
		n           = fs.Int("n", 256, "size of the key space [0, n)")
		service     = registerServiceFlags(fs)
		drainFor    = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget before connections are cut")
		pprofOn     = fs.Bool("pprof", false, "serve runtime profiles under /debug/pprof/ on the metrics address: the index, profile?seconds=N (CPU) and <name>?debug=N")
	)
	fs.Parse(args)

	svc, err := lsasg.New(*n, service.options()...)
	if err != nil {
		return err
	}

	tracer := svc.Tracer()
	srv := wire.NewServer(svc, wire.WithTracer(tracer))
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var obsSrv *observer
	if *metricsAddr != "" {
		obsLis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			lis.Close()
			return fmt.Errorf("metrics endpoint %s: %w", *metricsAddr, err)
		}
		obsSrv = newObserver(srv.Collector().Render, *pprofOn)
		obsSrv.start(obsLis)
		log.Printf("metrics on http://%s/metrics", obsLis.Addr())
		if *pprofOn {
			log.Printf("pprof on http://%s/debug/pprof/", obsLis.Addr())
		}
	}
	log.Printf("load window: %d ops", svc.RebalanceWindow())
	log.Printf("serving %d keys (%d shard(s)) on %s", *n, svc.Shards(), lis.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case s := <-stop:
		log.Printf("%v: draining (budget %v)", s, *drainFor)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("forced shutdown: %w", err)
	}
	if obsSrv != nil {
		if err := obsSrv.shutdown(ctx); err != nil {
			log.Printf("metrics endpoint: forced shutdown: %v", err)
		}
	}
	if err := svc.Verify(); err != nil {
		return fmt.Errorf("post-drain verify: %w", err)
	}
	if tracer != nil {
		for _, l := range tracer.VerbLatencies() {
			if l.Count == 0 {
				continue
			}
			log.Printf("latency %s: n=%d p50=%v p99=%v", obs.KindName(l.Kind),
				l.Count, time.Duration(l.P50Nanos), time.Duration(l.P99Nanos))
		}
	}
	fmt.Fprintln(os.Stderr, "dsgserve: drained cleanly")
	return nil
}
