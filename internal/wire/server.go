package wire

import (
	"bufio"
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// Server fronts one lsasg.Service over a TCP listener.
//
// The service's methods are not concurrency-safe, so a single owner
// goroutine holds it and everything else funnels through the intake
// channel. The owner serves one item at a time in arrival order: an op
// through Service.Do — answered as soon as it is served — and an admin verb
// (Stats, AddNode, RemoveNode, Crash, Verify, TraceDump) between ops on the
// same goroutine, so the service is idle whenever an admin verb runs and
// reading it never disturbs the ops around it. An op that fails — a route
// whose endpoint is gone or dead, or a fault inside the service — costs its
// sender one error frame and nobody else anything.
type Server struct {
	svc    lsasg.Service
	col    *Collector
	tracer *obs.Tracer

	// n mirrors svc.N() so connection readers can validate envelopes
	// without touching the service; the owner refreshes it after
	// membership admin.
	n atomic.Int64

	intake    chan item
	quit      chan struct{}
	ownerDone chan struct{}

	mu      sync.Mutex
	lis     net.Listener
	conns   map[*serverConn]struct{}
	closing bool
	connWG  sync.WaitGroup
}

// writeTimeout bounds each response-frame write. A connection that cannot
// absorb its responses within the bound is declared dead and its remaining
// output discarded, so a stalled client can never wedge the owner.
const writeTimeout = 10 * time.Second

// item is one unit of intake: an op bound for Service.Do, or an admin
// request (hasOp false).
type item struct {
	req   Request
	op    lsasg.Op
	hasOp bool
	c     *serverConn
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithTracer attaches the service's observability tracer: VerbTraceDump
// answers from its slow-span ring, and the collector renders its latency
// histograms and retry counters on /metrics. Without it, TraceDump
// answers CodeInvalid and the histogram families render empty.
func WithTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) {
		if tr != nil {
			s.tracer = tr
			s.col.setTracer(tr)
		}
	}
}

// NewServer wraps svc. The owner goroutine starts immediately; Serve
// accepts connections, Shutdown drains and stops.
func NewServer(svc lsasg.Service, opts ...ServerOption) *Server {
	s := &Server{
		svc:       svc,
		col:       NewCollector(),
		intake:    make(chan item, 256),
		quit:      make(chan struct{}),
		ownerDone: make(chan struct{}),
		conns:     map[*serverConn]struct{}{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.n.Store(int64(svc.N()))
	go s.owner()
	return s
}

// Collector exposes the server's metrics aggregate (for the HTTP
// observability endpoint).
func (s *Server) Collector() *Collector { return s.col }

// Serve accepts connections on lis until Shutdown (or a fatal listener
// error). Transient accept errors back off exponentially up to a second.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		lis.Close()
		return nil
	}
	s.lis = lis
	s.mu.Unlock()

	backoff := 5 * time.Millisecond
	for {
		nc, err := lis.Accept()
		if err != nil {
			select {
			case <-s.quit:
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
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		c := &serverConn{nc: nc, out: make(chan []byte, 256), closed: make(chan struct{})}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, stop reading new frames,
// answer everything already in flight, and close connections. If ctx
// expires first, connections are force-closed: the owner still serves the
// ops it had accepted, and their answers are discarded.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	lis := s.lis
	s.mu.Unlock()
	if already {
		<-s.ownerDone
		return nil
	}
	if lis != nil {
		lis.Close()
	}
	close(s.quit)
	s.pokeConns()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(s.intake)
		<-s.ownerDone
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// pokeConns breaks readers out of blocking reads so they observe quit.
func (s *Server) pokeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for c := range s.conns {
		c.nc.SetReadDeadline(now)
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.markClosed()
		c.nc.Close()
	}
}

// --- owner: the one goroutine that touches the service ---------------------

func (s *Server) owner() {
	defer close(s.ownerDone)
	for it := range s.intake {
		if it.hasOp {
			s.serveOp(it)
		} else {
			s.handleAdmin(it)
		}
		// Refresh the topology gauges from the owner's side, so /metrics
		// follows the traffic and a scrape never touches the service.
		s.col.observeService(s.svc.Stats())
	}
}

// serveOp serves one op through the service and answers its sender. A
// barrier failure behind a served op is the daemon's, not the sender's: it
// is logged and counted as an internal error, and the sender gets the op's
// outcome.
func (s *Server) serveOp(it item) {
	r, err := s.svc.Do(it.op)
	if errors.Is(err, lsasg.ErrBarrier) {
		log.Printf("wire: %s %d→%d was served, then: %v", it.req.Verb, it.op.Src, it.op.Dst, err)
		s.col.observeError(CodeInternal)
		err = r.Err
	}
	if err != nil {
		resp := errResponse(it.req, CodeOf(err), err.Error())
		s.col.observeError(resp.Code)
		s.respond(it.c, resp)
	} else {
		s.col.observeResult(it.req.Verb, r)
		s.respond(it.c, opResponse(it.req, r))
	}
}

// handleAdmin runs an admin verb against the service, idle between ops
// (TraceDump reads only the tracer).
func (s *Server) handleAdmin(it item) {
	req := it.req
	resp := Response{Verb: req.Verb, Seq: req.Seq}
	switch req.Verb {
	case VerbStats:
		resp.Stats = &StatsPayload{Cum: s.svc.Stats()}
	case VerbVerify:
		if err := s.svc.Verify(); err != nil {
			resp = errResponse(req, CodeInternal, err.Error())
		}
	case VerbAddNode:
		idx, err := s.svc.AddNode()
		if err != nil {
			resp = errResponse(req, CodeOf(err), err.Error())
			break
		}
		resp.Node = int64(idx)
		s.n.Store(int64(s.svc.N()))
	case VerbRemoveNode:
		if err := s.svc.RemoveNode(int(req.Dst)); err != nil {
			resp = errResponse(req, CodeOf(err), err.Error())
			break
		}
		s.n.Store(int64(s.svc.N()))
	case VerbTraceDump:
		if s.tracer == nil {
			resp = errResponse(req, CodeInvalid, "tracing is not enabled on this daemon")
			break
		}
		resp.Spans = s.tracer.SlowSpans(int(req.Limit))
		resp.Latency = s.tracer.VerbLatencies()
	case VerbCrash:
		if err := s.svc.Crash(int(req.Dst)); err != nil {
			resp = errResponse(req, CodeOf(err), err.Error())
		}
	default:
		resp = errResponse(req, CodeInvalid, "not an admin verb")
	}
	s.col.observeAdmin(req.Verb)
	if resp.Code != CodeOK {
		s.col.observeError(resp.Code)
	}
	s.respond(it.c, resp)
}

// respond sends one answer and retires the request's pending mark.
func (s *Server) respond(c *serverConn, resp Response) {
	c.send(resp.Encode())
	c.pending.Done()
}

func errResponse(req Request, code ErrCode, msg string) Response {
	return Response{Verb: req.Verb, Seq: req.Seq, Code: code, Msg: msg}
}

// opResponse maps one op's outcome onto the wire.
func opResponse(req Request, r lsasg.OpResult) Response {
	resp := Response{
		Verb:     req.Verb,
		Seq:      req.Seq,
		Distance: int64(r.RouteDistance),
		Hops:     int64(r.RouteHops),
	}
	switch r.Op.Kind {
	case lsasg.RouteKind:
		resp.Node = int64(r.Op.Dst)
	case lsasg.GetKind:
		resp.Found = r.Found
		resp.Version = r.Version
		resp.Value = r.Value
	case lsasg.PutKind:
		resp.Version = r.Version
		resp.Existed = r.Existed
	case lsasg.DeleteKind:
		resp.Existed = r.Existed
	case lsasg.ScanKind:
		if len(r.Entries) > 0 {
			resp.Entries = make([]Entry, len(r.Entries))
			for i, kv := range r.Entries {
				resp.Entries[i] = Entry{Key: int64(kv.Key), Version: kv.Version, Value: kv.Value}
			}
		}
	}
	return resp
}

// --- per-connection goroutines ---------------------------------------------

// serverConn is one accepted connection: a reader loop (the handleConn
// goroutine) and a writer goroutine joined by the out channel. closed
// marks the writer dead — further sends are discarded, which keeps the
// owner from ever blocking on a broken peer.
type serverConn struct {
	nc        net.Conn
	out       chan []byte
	closed    chan struct{}
	closeOnce sync.Once
	// pending counts requests handed to the owner and not yet answered.
	pending sync.WaitGroup
}

func (c *serverConn) send(body []byte) {
	select {
	case c.out <- body:
	case <-c.closed:
	}
}

func (c *serverConn) markClosed() {
	c.closeOnce.Do(func() { close(c.closed) })
}

func (s *Server) handleConn(c *serverConn) {
	defer s.connWG.Done()
	s.col.connOpened()
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		s.connWriter(c)
	}()

	br := bufio.NewReader(c.nc)
	for {
		select {
		case <-s.quit:
			goto drain
		default:
		}
		body, err := ReadFrame(br)
		if err != nil {
			goto drain
		}
		req, err := DecodeRequest(body)
		if err != nil {
			// Framing is intact but the payload is not trustworthy;
			// give up on the stream.
			goto drain
		}
		s.dispatch(c, req)
	}

drain:
	// Answer everything already in flight, then retire the writer.
	c.pending.Wait()
	close(c.out)
	writerDone.Wait()
	c.markClosed()
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.col.connClosed()
}

// dispatch validates an op envelope at the edge, so a bad request never
// reaches the service, and funnels the request to the owner.
func (s *Server) dispatch(c *serverConn, req Request) {
	it := item{req: req, c: c}
	if op, ok := req.Op(); ok {
		if err := op.Validate(int(s.n.Load())); err != nil {
			code := CodeOf(err)
			if code == CodeOK || code == CodeInternal {
				code = CodeInvalid
			}
			s.col.observeError(code)
			c.send(errResponse(req, code, err.Error()).Encode())
			return
		}
		it.op, it.hasOp = op, true
	}
	c.pending.Add(1)
	select {
	case s.intake <- it:
	case <-s.quit:
		c.pending.Done()
		c.send(errResponse(req, CodeRetry, "server shutting down").Encode())
	}
}

// connWriter flushes response frames, batching while the queue is
// non-empty. A write failure or timeout declares the connection dead and
// the rest of its output is discarded.
func (s *Server) connWriter(c *serverConn) {
	bw := bufio.NewWriter(c.nc)
	for body := range c.out {
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := WriteFrame(bw, body); err != nil {
			c.markClosed()
			break
		}
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				c.markClosed()
				break
			}
		}
	}
	for range c.out {
		// Dead connection: discard queued output so senders never block.
	}
}
