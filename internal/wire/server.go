package wire

import (
	"bufio"
	"context"
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
// channel. Ops are served in generations: one long-running ServeOps
// pipeline consumes a generation's ops channel, and its onResult callback
// answers waiters in FIFO order — results arrive in dispatch order, which
// is the order the owner appended them. Admin verbs (Stats, AddNode,
// RemoveNode, Crash, Verify) need an idle service, so each one closes the
// current generation's ops channel, drains the pipeline, runs against the
// quiesced service, and lets the next op start a fresh generation.
// TraceDump is the exception: it reads only the tracer, which is
// concurrency-safe, so it is answered while the generation keeps serving. A
// route whose endpoint is gone or dead is a per-op miss: its waiter gets
// the matching error code and the generation keeps serving. A generation
// that dies on an op error answers its first pending waiter with the real
// error and every later one with CodeRetry — their ops were fine, the
// pipeline just restarted under them.
type Server struct {
	svc    lsasg.Service
	col    *Collector
	tracer *obs.Tracer

	writeTimeout time.Duration
	idleTimeout  time.Duration
	maxPending   int

	// n mirrors svc.N() so connection readers can validate envelopes
	// without touching the service; the owner refreshes it after
	// membership admin.
	n atomic.Int64

	intake    chan item
	quit      chan struct{}
	ownerDone chan struct{}
	baseCtx   context.Context
	cancel    context.CancelFunc

	// lastServe is the most recent cleanly-completed generation's stats.
	// Owner-goroutine state; reached by admin handling only.
	lastServe lsasg.ServeStats

	mu      sync.Mutex
	lis     net.Listener
	conns   map[*serverConn]struct{}
	closing bool
	connWG  sync.WaitGroup
}

// item is one unit of intake: an op bound for the serving pipeline, or an
// admin request (hasOp false).
type item struct {
	req   Request
	op    lsasg.Op
	hasOp bool
	c     *serverConn
}

// waiter is one op awaiting its pipeline result.
type waiter struct {
	req Request
	c   *serverConn
}

type genDone struct {
	st  lsasg.ServeStats
	err error
}

// generation is one ServeOps run over the service.
type generation struct {
	ops     chan lsasg.Op
	waiters chan waiter
	done    chan genDone
	res     *genDone
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithWriteTimeout bounds each response-frame write. A connection that
// cannot absorb its responses within the bound is declared dead and its
// remaining output discarded, so a stalled client can never wedge the
// serving pipeline. Zero disables the bound.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithIdleTimeout closes connections idle longer than d. Zero (the
// default) keeps idle connections open indefinitely.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithMaxPending caps ops in flight inside one serving generation; beyond
// it, intake exerts backpressure on connection readers.
func WithMaxPending(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxPending = n
		}
	}
}

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
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		svc:          svc,
		col:          NewCollector(),
		writeTimeout: 10 * time.Second,
		maxPending:   1024,
		intake:       make(chan item, 256),
		quit:         make(chan struct{}),
		ownerDone:    make(chan struct{}),
		baseCtx:      ctx,
		cancel:       cancel,
		conns:        map[*serverConn]struct{}{},
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
// answer everything already in flight, retire the serving generation, and
// close connections. If ctx expires first, the in-flight pipeline is
// aborted and connections are force-closed.
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
		s.cancel()
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
	var gen *generation
	for {
		var it item
		var ok bool
		if gen == nil {
			it, ok = <-s.intake
		} else {
			// Watch the live generation while idle: a pipeline that dies
			// on an op error must answer its waiters now, not when the
			// next request happens to arrive.
			select {
			case res := <-gen.done:
				gen.res = &res
				s.finishGeneration(gen)
				gen = nil
				continue
			case it, ok = <-s.intake:
			}
		}
		if !ok {
			break
		}
		if it.hasOp {
			if gen == nil {
				gen = s.startGeneration()
			}
			if !s.genSubmit(gen, waiter{req: it.req, c: it.c}, it.op) {
				// Generation died under this op; the drain answers its
				// waiter (CodeRetry unless it inherited the error).
				s.finishGeneration(gen)
				gen = nil
			}
			continue
		}
		// Every admin verb but TraceDump touches the service and needs it
		// idle; a trace dump must not disturb the run it observes.
		if gen != nil && it.req.Verb != VerbTraceDump {
			close(gen.ops)
			s.finishGeneration(gen)
			gen = nil
		}
		s.handleAdmin(it)
	}
	if gen != nil {
		close(gen.ops)
		s.finishGeneration(gen)
	}
}

func (s *Server) startGeneration() *generation {
	g := &generation{
		ops:     make(chan lsasg.Op),
		waiters: make(chan waiter, s.maxPending),
		done:    make(chan genDone, 1),
	}
	go func() {
		st, err := s.svc.ServeOps(s.baseCtx, g.ops, func(r lsasg.OpResult) {
			// FIFO: results arrive in dispatch order, which is the order
			// the owner appended waiters.
			w := <-g.waiters
			if r.Err != nil {
				resp := errResponse(w.req, CodeOf(r.Err), r.Err.Error())
				s.col.observeError(resp.Code)
				s.respond(w.c, resp)
				return
			}
			s.col.observeResult(w.req.Verb, r)
			s.respond(w.c, opResponse(w.req, r))
		})
		g.done <- genDone{st: st, err: err}
	}()
	return g
}

// genSubmit appends the waiter and hands the op to the pipeline. The
// waiter goes first so that if the generation dies in between, the drain
// still answers it. Returns false when the generation has ended.
func (s *Server) genSubmit(g *generation, w waiter, op lsasg.Op) bool {
	select {
	case g.waiters <- w:
	case res := <-g.done:
		g.res = &res
		return false
	}
	select {
	case g.ops <- op:
		return true
	case res := <-g.done:
		g.res = &res
		return false
	}
}

// finishGeneration waits out the pipeline, answers any waiter it left
// behind, and snapshots the quiesced service for the collector. On a clean
// close no waiters remain (every forwarded op produced a result); on an
// error the first pending waiter is the op that failed — it gets the real
// error — and later ones get CodeRetry.
func (s *Server) finishGeneration(g *generation) {
	res := g.res
	if res == nil {
		r := <-g.done
		res = &r
	}
	first := true
	for {
		var w waiter
		select {
		case w = <-g.waiters:
		default:
			if res.err == nil {
				s.lastServe = res.st
			}
			s.col.observeGeneration(s.svc.Stats(), s.lastServe)
			return
		}
		var resp Response
		if first && res.err != nil {
			code := CodeOf(res.err)
			if code == CodeOK {
				code = CodeInternal
			}
			resp = errResponse(w.req, code, res.err.Error())
		} else {
			resp = errResponse(w.req, CodeRetry, "serving generation restarted")
		}
		first = false
		s.col.observeError(resp.Code)
		s.respond(w.c, resp)
	}
}

// handleAdmin runs an admin verb — against the idle service, except for
// TraceDump, which never touches it.
func (s *Server) handleAdmin(it item) {
	req := it.req
	resp := Response{Verb: req.Verb, Seq: req.Seq}
	switch req.Verb {
	case VerbStats:
		resp.Stats = &StatsPayload{Cum: s.svc.Stats(), Serve: s.lastServe}
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

// opResponse maps one pipeline outcome onto the wire.
func opResponse(req Request, r lsasg.OpResult) Response {
	resp := Response{
		Verb:     req.Verb,
		Seq:      req.Seq,
		Distance: int64(r.RouteDistance),
		Hops:     int64(r.RouteHops),
		Lag:      int64(r.AdjustLag),
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
// pipeline's onResult from ever blocking on a broken peer.
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
		if s.idleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
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

// dispatch validates an op envelope at the edge (so a bad request cannot
// kill a serving generation) and funnels the request to the owner.
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
		if s.writeTimeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
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
