// Command dsgserve runs the self-adjusting skip graph as a network daemon:
// one lsasg.Network — a single graph, or -shards partitions of it — behind
// the wire protocol on a TCP port, with Prometheus-text observability on a
// second port. Clients speak the length-prefixed binary protocol
// (docs/WIRE.md); cmd/dsgctl is the reference client.
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
//	dsgserve -pprof                   # live profiles under /debug/pprof/
//	dsgserve -trace=false             # drop span/histogram instrumentation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiles gated behind -pprof; see the mux graft below
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
	var (
		addr        = flag.String("addr", ":4600", "TCP address to serve the wire protocol on")
		metricsAddr = flag.String("metrics", ":4601", "HTTP address for /metrics and /healthz; empty disables")
		n           = flag.Int("n", 256, "size of the key space [0, n)")
		service     = registerServiceFlags(flag.CommandLine)
		drainFor    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget before connections are cut")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the metrics address")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("dsgserve: ")

	svc, err := lsasg.New(*n, service.options()...)
	if err != nil {
		log.Fatal(err)
	}

	tracer := svc.Tracer()
	srv := wire.NewServer(svc, wire.WithTracer(tracer))
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("load window: %d ops", svc.RebalanceWindow())
	log.Printf("serving %d keys (%d shard(s)) on %s", *n, svc.Shards(), lis.Addr())

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		handler := srv.Collector().Handler()
		if *pprofOn {
			// The pprof package registers on http.DefaultServeMux at import;
			// graft that mux under /debug/pprof/ so profiles share the
			// metrics port without exposing them by default.
			outer := http.NewServeMux()
			outer.Handle("/", handler)
			outer.Handle("/debug/pprof/", http.DefaultServeMux)
			handler = outer
			log.Printf("pprof on http://%s/debug/pprof/", *metricsAddr)
		}
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: handler}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", *metricsAddr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining (budget %v)", s, *drainFor)
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("forced shutdown: %v", err)
		os.Exit(1)
	}
	if metricsSrv != nil {
		metricsSrv.Shutdown(context.Background())
	}
	if err := svc.Verify(); err != nil {
		log.Fatalf("post-drain verify: %v", err)
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
}
