package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lsasg"
	"lsasg/internal/wire"
)

// serveObserver starts o on a loopback port, shuts it down when the test
// ends, and returns its address.
func serveObserver(t *testing.T, o *observer) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o.start(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := o.shutdown(ctx); err != nil {
			t.Errorf("observer shutdown: %v", err)
		}
	})
	return lis.Addr().String()
}

// startService serves a fresh traced service over the wire on a loopback
// port and returns the server and a client of it.
func startService(t *testing.T, n int) (*wire.Server, *wire.Client) {
	t.Helper()
	svc, err := lsasg.New(n, lsasg.WithSeed(3), lsasg.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(svc, wire.WithTracer(svc.Tracer()))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl, err := wire.DialClient(lis.Addr().String(), wire.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return srv, cl
}

// get fetches url with Go's HTTP client and returns the status and body.
func get(url string) (int, http.Header, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// mustGet fetches url and fails the test unless it is answered 200.
func mustGet(t *testing.T, url string) (http.Header, []byte) {
	t.Helper()
	status, h, body, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, status, body)
	}
	return h, body
}

// exchange writes one raw request and reads the connection to its end.
func exchange(t *testing.T, addr, req string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(nc, req); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("%.40q: %v", req, err)
	}
	return string(out)
}

// families lists the metric families a Prometheus text body declares.
func families(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, f)
		}
	}
	return out
}

// TestMetricsAndHealthz: Go's HTTP client reads /metrics — every family
// Collector.Render renders, counting the traffic served — and /healthz off
// the responder.
func TestMetricsAndHealthz(t *testing.T) {
	srv, cl := startService(t, 32)
	if _, _, err := cl.Put(0, 9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Route(3, 20); err != nil {
		t.Fatal(err)
	}
	base := "http://" + serveObserver(t, newObserver(srv.Collector().Render, false))

	h, body := mustGet(t, base+"/metrics")
	if ct := h.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	got, want := families(string(body)), families(srv.Collector().Render())
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("/metrics families\n got %q\nwant %q", got, want)
	}
	for _, line := range []string{`dsg_requests_total{verb="put"} 1`, `dsg_requests_total{verb="route"} 1`, "dsg_connections 1"} {
		if !bytes.Contains(body, []byte(line+"\n")) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if _, body := mustGet(t, base+"/healthz"); string(body) != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
	if status, _, _, err := get(base + "/nope"); err != nil || status != http.StatusNotFound {
		t.Errorf("GET /nope: %d, %v", status, err)
	}
	resp, err := http.Post(base+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST /metrics: %s, Allow %q", resp.Status, resp.Header.Get("Allow"))
	}
}

// TestRequestHeads: the responder answers GET alone, byte for byte what
// render returns, and refuses everything else — a malformed request line or
// header, a head over 8 KiB, another method, another path, profiles without
// -pprof — each on one connection it then closes.
func TestRequestHeads(t *testing.T) {
	addr := serveObserver(t, newObserver(func() string { return "stub 1\n" }, false))
	pad := func(n int) string { return "X-Pad: " + strings.Repeat("a", n) + "\r\n" }
	for _, tc := range []struct {
		name, req string
		status    int
	}{
		{"metrics", "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", 200},
		{"bare LF", "GET /metrics HTTP/1.0\n\n", 200},
		{"head under 8 KiB", "GET /metrics HTTP/1.1\r\n" + pad(7<<10) + "\r\n", 200},
		{"head over 8 KiB", "GET /metrics HTTP/1.1\r\n" + pad(9<<10) + "\r\n", 400},
		{"one word", "GARBAGE\r\n\r\n", 400},
		{"relative target", "GET metrics HTTP/1.1\r\n\r\n", 400},
		{"not HTTP/1", "GET /metrics SPDY/3\r\n\r\n", 400},
		{"header without colon", "GET /metrics HTTP/1.1\r\nno colon\r\n\r\n", 400},
		{"POST with a body", "POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 405},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\n\r\n", 405},
		{"unknown path", "GET /metricsx HTTP/1.1\r\n\r\n", 404},
		{"pprof index off", "GET /debug/pprof/ HTTP/1.1\r\n\r\n", 404},
		{"pprof profile off", "GET /debug/pprof/goroutine?debug=1 HTTP/1.1\r\n\r\n", 404},
	} {
		out := exchange(t, addr, tc.req)
		head, body, ok := strings.Cut(out, "\r\n\r\n")
		if !ok || !strings.HasPrefix(head, fmt.Sprintf("HTTP/1.1 %d ", tc.status)) {
			t.Errorf("%s: answered %q, want status %d", tc.name, out, tc.status)
			continue
		}
		if !strings.Contains(head, "\r\nConnection: close") || !strings.Contains(head, fmt.Sprintf("\r\nContent-Length: %d", len(body))) {
			t.Errorf("%s: head %q", tc.name, head)
		}
		if tc.status == 200 && body != "stub 1\n" {
			t.Errorf("%s: body %q, want the rendering byte for byte", tc.name, body)
		}
	}
}

// TestProfiles: with -pprof the responder serves the index, a CPU profile
// over ?seconds=N (gzipped protobuf, one at a time) and each named runtime
// profile, in text at ?debug=1.
func TestProfiles(t *testing.T) {
	o := newObserver(func() string { return "" }, true)
	base := "http://" + serveObserver(t, o)

	_, cpu := mustGet(t, base+"/debug/pprof/profile?seconds=1")
	zr, err := gzip.NewReader(bytes.NewReader(cpu))
	if err != nil {
		t.Fatalf("CPU profile is not gzip-framed: %v", err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("CPU profile: %d bytes, %v", len(raw), err)
	}
	if _, body := mustGet(t, base+"/debug/pprof/goroutine?debug=1"); !bytes.HasPrefix(body, []byte("goroutine profile:")) {
		t.Errorf("goroutine?debug=1 = %.80q", body)
	}
	if h, body := mustGet(t, base+"/debug/pprof/heap"); h.Get("Content-Type") != "application/octet-stream" || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Errorf("heap at debug=0: %q, %.8q", h.Get("Content-Type"), body)
	}
	_, index := mustGet(t, base+"/debug/pprof/")
	for _, name := range []string{"profile", "goroutine", "heap", "allocs"} {
		if !bytes.Contains(index, []byte(name+"\t")) {
			t.Errorf("index lacks %s:\n%s", name, index)
		}
	}
	for path, want := range map[string]int{
		"/debug/pprof/nosuch":               404,
		"/debug/pprof/cmdline":              404,
		"/debug/pprof/profile?seconds=0":    400,
		"/debug/pprof/profile?seconds=61":   400,
		"/debug/pprof/profile?seconds=x":    400,
		"/debug/pprof/goroutine?debug=-1":   400,
		"/debug/pprof/goroutine?debug=%zz":  400,
		"/debug/pprof":                      404,
		"/debug/pprof/goroutine/extra?x=1y": 404,
	} {
		if status, _, body, err := get(base + path); err != nil || status != want {
			t.Errorf("GET %s: %d %q %v, want %d", path, status, body, err, want)
		}
	}

	// A second CPU profile while one runs is refused.
	o.cpu.Lock()
	status, _, _, err := get(base + "/debug/pprof/profile?seconds=1")
	o.cpu.Unlock()
	if err != nil || status != http.StatusConflict {
		t.Errorf("concurrent CPU profile: %d, %v", status, err)
	}
}

// TestSlowHeadIsCut: a client that never finishes its request head is cut
// at the head deadline, unanswered, and does not hold shutdown.
func TestSlowHeadIsCut(t *testing.T) {
	o := newObserver(func() string { return "" }, false)
	o.headTimeout = 200 * time.Millisecond
	addr := serveObserver(t, o)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	io.WriteString(nc, "GET /metr")
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	out, _ := io.ReadAll(nc)
	if took := time.Since(start); len(out) != 0 || took < o.headTimeout || took > 5*time.Second {
		t.Fatalf("slow head: answered %q after %v, want a cut at %v", out, took, o.headTimeout)
	}

	// Under the default deadline, shutdown cuts such a client at once.
	o = newObserver(func() string { return "" }, false)
	addr = serveObserver(t, o)
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	io.WriteString(nc2, "GET /metrics HTTP/1.1\r\n")
	start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*headTimeout)
	defer cancel()
	if err := o.shutdown(ctx); err != nil || time.Since(start) >= headTimeout {
		t.Fatalf("shutdown beside a slow head: %v after %v", err, time.Since(start))
	}
}

// blockingRender is a /metrics source that holds every scrape until
// release is closed, announcing each on entered.
func blockingRender() (render func() string, entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 4*maxHandlers), make(chan struct{})
	return func() string {
		entered <- struct{}{}
		<-release
		return "held 1\n"
	}, entered, release
}

// TestShutdownWaitsForHandlers: shutdown returns only once a handler in
// flight has written its whole answer.
func TestShutdownWaitsForHandlers(t *testing.T) {
	render, entered, release := blockingRender()
	o := newObserver(render, false)
	addr := serveObserver(t, o)
	got := make(chan string, 1)
	go func() {
		_, _, body, err := get("http://" + addr + "/metrics")
		if err != nil {
			t.Error(err)
		}
		got <- string(body)
	}()
	<-entered
	done := make(chan error, 1)
	go func() { done <- o.shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a scrape in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if body := <-got; body != "held 1\n" {
		t.Fatalf("the in-flight scrape read %q", body)
	}
}

// TestHandlersAreCapped: at most maxHandlers requests are served at once;
// the rest wait for a slot and are answered once one frees.
func TestHandlersAreCapped(t *testing.T) {
	render, entered, release := blockingRender()
	addr := serveObserver(t, newObserver(render, false))
	var wg sync.WaitGroup
	for i := 0; i < maxHandlers+2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _, _, err := get("http://" + addr + "/metrics"); err != nil || status != http.StatusOK {
				t.Errorf("scrape: %d, %v", status, err)
			}
		}()
	}
	for i := 0; i < maxHandlers; i++ {
		<-entered
	}
	select {
	case <-entered:
		t.Errorf("more than %d handlers ran at once", maxHandlers)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	wg.Wait()
}

// TestConcurrentScrapesDuringTraffic: scrapes from several goroutines
// while ops are served all read a well-formed page, and the last one counts
// every op.
func TestConcurrentScrapesDuringTraffic(t *testing.T) {
	const n, ops, scrapers, scrapes = 64, 200, 4, 10
	srv, cl := startService(t, n)
	base := "http://" + serveObserver(t, newObserver(srv.Collector().Render, false))
	want := families(srv.Collector().Render())
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				status, _, body, err := get(base + "/metrics")
				if err != nil || status != http.StatusOK || !slices.Equal(families(string(body)), want) {
					t.Errorf("scrape %d: %d, %v", i, status, err)
					return
				}
			}
		}()
	}
	for i := 0; i < ops; i++ {
		if _, err := cl.Route(i%n, (i*7+1)%n); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	wg.Wait()
	_, body := mustGet(t, base+"/metrics")
	if line := fmt.Sprintf(`dsg_requests_total{verb="route"} %d`, ops); !bytes.Contains(body, []byte(line+"\n")) {
		t.Fatalf("last scrape lacks %q", line)
	}
}

// TestUnusableMetricsAddressFailsFast: the daemon binds its observability
// listener before it serves, and an address it cannot bind ends it with an
// error that names the address.
func TestUnusableMetricsAddressFailsFast(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, addr := range []string{busy.Addr().String(), "127.0.0.1:notaport"} {
		// Were the address usable, the queued signal would drain the daemon
		// at once and run would return nil.
		stop := make(chan os.Signal, 1)
		stop <- syscall.SIGTERM
		err := run([]string{"-n", "16", "-addr", "127.0.0.1:0", "-metrics", addr}, stop)
		if err == nil || !strings.Contains(err.Error(), addr) {
			t.Errorf("-metrics %s: %v, want an error naming the address", addr, err)
		}
	}
}
