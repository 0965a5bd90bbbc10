package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/url"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// observer is the daemon's observability endpoint: a net-only HTTP/1.1
// responder for /metrics, /healthz and, with -pprof, /debug/pprof/. It reads
// one GET per connection, answers it with a Content-Length and closes the
// connection, which is all a Prometheus scrape, curl or `go tool pprof`
// needs — so the daemon links neither net/http nor what it pulls in
// (crypto/tls, HTTP/2). Anything else is refused: 400 for a malformed or
// oversized request head, 405 for a method other than GET, 404 for any
// other path.
type observer struct {
	render      func() string // the /metrics body
	pprof       bool
	headTimeout time.Duration // how long a client has to send its request head

	// slots holds one token per running handler: the accept loop takes one
	// before it accepts, so at most maxHandlers connections are served at
	// once and the rest wait in the listener's backlog.
	slots chan struct{}
	// cpu is held while a CPU profile runs: one at a time, as the runtime
	// allows.
	cpu  sync.Mutex
	quit chan struct{}

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup // the accept loop and every handler
}

const (
	// maxHead caps a request head: request line and header lines.
	maxHead = 8 << 10
	// headTimeout is a connection's deadline for sending its request head.
	headTimeout = 5 * time.Second
	// maxHandlers caps the connections served at once.
	maxHandlers = 8
	// writeTimeout bounds the write of an answer.
	writeTimeout = 10 * time.Second
	// lingerTimeout bounds the read of what a client still sends after its
	// answer (see linger).
	lingerTimeout = 500 * time.Millisecond
	// A CPU profile runs ?seconds=N seconds, N in [1, maxProfileSeconds].
	defaultProfileSeconds = 30
	maxProfileSeconds     = 60
)

func newObserver(render func() string, pprofOn bool) *observer {
	return &observer{
		render:      render,
		pprof:       pprofOn,
		headTimeout: headTimeout,
		slots:       make(chan struct{}, maxHandlers),
		quit:        make(chan struct{}),
		conns:       map[net.Conn]struct{}{},
	}
}

// start accepts connections on lis on a goroutine of its own until
// shutdown; a fatal accept error is logged and ends it.
func (o *observer) start(lis net.Listener) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		lis.Close()
		return
	}
	o.lis = lis
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		if err := o.accept(lis); err != nil {
			log.Printf("metrics endpoint: %v", err)
		}
	}()
}

// accept runs the accept loop. Transient accept errors back off
// exponentially up to a second, as the wire server's do.
func (o *observer) accept(lis net.Listener) error {
	backoff := 5 * time.Millisecond
	for {
		select {
		case o.slots <- struct{}{}:
		case <-o.quit:
			return nil
		}
		nc, err := lis.Accept()
		if err != nil {
			<-o.slots
			select {
			case <-o.quit:
				return nil
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			return err
		}
		backoff = 5 * time.Millisecond
		o.mu.Lock()
		if o.closing {
			o.mu.Unlock()
			nc.Close()
			<-o.slots
			continue
		}
		// Set under mu, so shutdown's poke cannot come before it.
		nc.SetReadDeadline(time.Now().Add(o.headTimeout))
		o.conns[nc] = struct{}{}
		o.wg.Add(1)
		o.mu.Unlock()
		go o.handle(nc)
	}
}

// shutdown stops accepting, cuts connections still sending their request
// head, cuts a running CPU profile short and waits for every handler to
// write its answer. If ctx expires first, connections are force-closed.
func (o *observer) shutdown(ctx context.Context) error {
	o.mu.Lock()
	if !o.closing {
		o.closing = true
		close(o.quit)
		if o.lis != nil {
			o.lis.Close()
		}
		now := time.Now()
		for nc := range o.conns {
			nc.SetReadDeadline(now)
		}
	}
	o.mu.Unlock()

	done := make(chan struct{})
	go func() {
		o.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		o.mu.Lock()
		for nc := range o.conns {
			nc.Close()
		}
		o.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (o *observer) handle(nc net.Conn) {
	defer func() {
		nc.Close()
		o.mu.Lock()
		delete(o.conns, nc)
		o.mu.Unlock()
		<-o.slots
		o.wg.Done()
	}()
	var r response
	method, target, err := readHead(nc)
	var bad badRequest
	switch {
	case errors.As(err, &bad):
		r = text(400, string(bad)+"\n")
	case err != nil:
		return // the head deadline, shutdown, or a client that hung up
	default:
		r = o.respond(method, target)
	}
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if r.writeTo(nc) == nil {
		o.linger(nc)
	}
}

// linger half-closes the connection and reads what the client still sends
// — a request body, the rest of an oversized head — until it hangs up:
// closing with unread bytes would reset the connection, and the client
// could lose the answer it has not read yet.
func (o *observer) linger(nc net.Conn) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return
	}
	select {
	case <-o.quit:
		return
	default:
	}
	tc.CloseWrite()
	tc.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, io.LimitReader(tc, maxHead))
}

// badRequest is a request head refused with 400; its text is the answer.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// readHead reads a request head of at most maxHead bytes — the request
// line, then header lines up to a blank one — and returns the request
// line's method and target. Header lines are checked for form and
// otherwise ignored: no answer depends on them.
func readHead(r io.Reader) (method, target string, err error) {
	lr := &io.LimitedReader{R: r, N: maxHead}
	br := bufio.NewReader(lr)
	for first := true; ; first = false {
		line, err := br.ReadString('\n')
		if err != nil {
			if lr.N == 0 {
				return "", "", badRequest("request head over 8 KiB")
			}
			return "", "", err
		}
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if first {
			var rest, proto string
			var ok bool
			method, rest, _ = strings.Cut(line, " ")
			target, proto, ok = strings.Cut(rest, " ")
			if !ok || method == "" || !strings.HasPrefix(target, "/") || !strings.HasPrefix(proto, "HTTP/1.") {
				return "", "", badRequest("malformed request line")
			}
			continue
		}
		if line == "" {
			return method, target, nil
		}
		if !strings.Contains(line, ":") {
			return "", "", badRequest("malformed header line")
		}
	}
}

type response struct {
	status int
	ctype  string
	body   []byte
}

func text(status int, body string) response {
	return response{status, "text/plain; charset=utf-8", []byte(body)}
}

var statusText = map[int]string{
	200: "OK", 400: "Bad Request", 404: "Not Found",
	405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
}

func (r response) writeTo(w io.Writer) error {
	head := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		r.status, statusText[r.status], r.ctype, len(r.body))
	if r.status == 405 {
		head = append(head, "Allow: GET\r\n"...)
	}
	bufs := net.Buffers{append(head, "\r\n"...), r.body}
	_, err := bufs.WriteTo(w)
	return err
}

// respond answers one well-formed request.
func (o *observer) respond(method, target string) response {
	if method != "GET" {
		return text(405, "GET only\n")
	}
	path, query, _ := strings.Cut(target, "?")
	switch {
	case path == "/metrics":
		return response{200, "text/plain; version=0.0.4; charset=utf-8", []byte(o.render())}
	case path == "/healthz":
		return text(200, "ok\n")
	case o.pprof && strings.HasPrefix(path, "/debug/pprof/"):
		return o.profile(strings.TrimPrefix(path, "/debug/pprof/"), query)
	}
	return text(404, "not found\n")
}

// profile answers /debug/pprof/<name>: the index of profiles for an empty
// name, a CPU profile for "profile", and otherwise the named runtime
// profile — gzipped protobuf at debug=0, the default, text above it.
func (o *observer) profile(name, rawQuery string) response {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return text(400, "malformed query\n")
	}
	switch name {
	case "":
		var b strings.Builder
		b.WriteString("# /debug/pprof/<name>?debug=N: gzipped protobuf at debug=0 (the default), text above it\n")
		fmt.Fprintf(&b, "profile\tCPU, over ?seconds=N from 1 to %d (default %d)\n",
			maxProfileSeconds, defaultProfileSeconds)
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&b, "%s\t%d\n", p.Name(), p.Count())
		}
		return text(200, b.String())
	case "profile":
		return o.cpuProfile(q.Get("seconds"))
	}
	p := pprof.Lookup(name)
	if p == nil {
		return text(404, "no profile "+name+"\n")
	}
	debug := 0
	if s := q.Get("debug"); s != "" {
		if debug, err = strconv.Atoi(s); err != nil || debug < 0 {
			return text(400, "debug must be a non-negative integer\n")
		}
	}
	var b bytes.Buffer
	if err := p.WriteTo(&b, debug); err != nil {
		return text(500, err.Error()+"\n")
	}
	if debug == 0 {
		return response{200, "application/octet-stream", b.Bytes()}
	}
	return response{200, "text/plain; charset=utf-8", b.Bytes()}
}

// cpuProfile records the process for the given number of seconds, or until
// shutdown, and answers the gzipped protobuf profile.
func (o *observer) cpuProfile(seconds string) response {
	secs := defaultProfileSeconds
	if seconds != "" {
		var err error
		if secs, err = strconv.Atoi(seconds); err != nil || secs < 1 || secs > maxProfileSeconds {
			return text(400, fmt.Sprintf("seconds must be an integer from 1 to %d\n", maxProfileSeconds))
		}
	}
	if !o.cpu.TryLock() {
		return text(409, "a CPU profile is already running\n")
	}
	defer o.cpu.Unlock()
	var b bytes.Buffer
	if err := pprof.StartCPUProfile(&b); err != nil {
		return text(500, err.Error()+"\n")
	}
	t := time.NewTimer(time.Duration(secs) * time.Second)
	select {
	case <-t.C:
	case <-o.quit:
		t.Stop()
	}
	pprof.StopCPUProfile()
	return response{200, "application/octet-stream", b.Bytes()}
}
