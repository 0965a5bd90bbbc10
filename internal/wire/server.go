package wire

import (
	"bufio"
	"bytes"
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
// The service's methods are not concurrency-safe, so each connection's one
// goroutine reads a frame and serves it itself under one service lock, FIFO
// across connections: an op through Service.Do, an admin verb (Stats,
// AddNode, RemoveNode, Crash, Verify, TraceDump) between ops under the same
// lock, so the service is idle whenever an admin verb runs and reading it
// never disturbs the ops around it. The answer is encoded under the lock and
// written after it is released, so a client that stops reading stalls its
// own connection and nobody else's. An op that fails — a route whose
// endpoint is gone or dead, or a fault inside the service — costs its sender
// one error frame and nobody else anything.
//
// A connection keeps one read buffer and one answer buffer for its life. A
// frame's bytes live until the connection reads its next frame, so nothing
// the service keeps may alias them: a Put's value is copied once, into the
// record the graph keeps. Answers are appended to the answer buffer straight
// from the service's result and written once the frames already received
// are answered (or the buffer passes flushAt).
type Server struct {
	svc    lsasg.Service
	col    *Collector
	tracer *obs.Tracer

	// lock is the service lock: a reader holds the service while its token
	// fills the one slot. Blocked senders queue FIFO and a release moves the
	// longest waiter's token into the slot, so readers take turns in arrival
	// order — a sync.Mutex would let a pipelining reader re-take it ahead of
	// a waiting one.
	lock chan struct{}

	// n mirrors svc.N() so readers can validate envelopes without the lock;
	// membership admin refreshes it.
	n atomic.Int64

	quit chan struct{}

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	connWG  sync.WaitGroup
}

// writeTimeout bounds each write of answers. A connection that cannot
// absorb its responses within the bound is closed; it holds no lock while it
// waits, so it stalls only itself.
const writeTimeout = 10 * time.Second

const (
	// flushAt is how many answer bytes a pipelining connection gathers
	// before writing them while more of its frames are already received.
	flushAt = 4 << 10
	// keepBuf caps the buffers a connection keeps: one grown past it by a
	// large frame or answer is let go once used.
	keepBuf = 64 << 10
)

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithTracer attaches the service's observability tracer: VerbTraceDump
// answers from its slow-span ring, and the collector renders its latency
// histograms on /metrics. Without it, TraceDump
// answers CodeInvalid and the histogram families render empty.
func WithTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) {
		if tr != nil {
			s.tracer = tr
			s.col.setTracer(tr)
		}
	}
}

// NewServer wraps svc. Serve accepts connections, Shutdown drains and
// stops.
func NewServer(svc lsasg.Service, opts ...ServerOption) *Server {
	s := &Server{
		svc:   svc,
		col:   NewCollector(),
		lock:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		conns: map[net.Conn]struct{}{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.n.Store(int64(svc.N()))
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
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// Shutdown drains gracefully: stop accepting, stop reading new frames,
// answer every frame already read, and close connections. If ctx expires
// first, connections are force-closed: a reader still finishes the op it is
// serving, and its answer is lost.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	lis := s.lis
	s.mu.Unlock()
	if !already {
		if lis != nil {
			lis.Close()
		}
		close(s.quit)
		s.pokeConns()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
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
	for nc := range s.conns {
		nc.SetReadDeadline(now)
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		nc.Close()
	}
}

// --- one goroutine per connection -------------------------------------------

func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	s.col.connOpened()
	// Deliver the answers still gathered, then hang up.
	if out := s.serveConn(nc); len(out) > 0 {
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		nc.Write(out)
	}
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.col.connClosed()
}

// serveConn answers the connection's frames in read order until shutdown,
// the end of the stream, a bad frame or a failed write, and returns the
// answers it gathered but has not written. Answers are written once the read
// buffer is drained, so a pipelining client gets one write per batch of
// frames it sent.
func (s *Server) serveConn(nc net.Conn) []byte {
	br := bufio.NewReader(nc)
	var in, out []byte
	for {
		select {
		case <-s.quit:
			return out
		default:
		}
		body, err := readFrameInto(br, in)
		if err != nil {
			return out
		}
		if in = body; cap(in) > keepBuf {
			in = nil // body stays valid until this frame is answered
		}
		req, err := DecodeRequest(body)
		if err != nil {
			// Framing is intact but the payload is not trustworthy; give up
			// on the stream.
			return out
		}
		if out, err = s.serve(out, req); err != nil {
			return out
		}
		if br.Buffered() == 0 || len(out) >= flushAt {
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := nc.Write(out); err != nil {
				return nil
			}
			if out = out[:0]; cap(out) > keepBuf {
				out = nil
			}
		}
	}
}

// serve answers one request frame, appending the answer's frame to out. An
// op envelope is validated at the edge, so a bad request never reaches the
// service. Everything else runs under the service lock, encoding included:
// the caller writes the answer only once the lock is released. It fails only
// on an answer too large for a frame.
func (s *Server) serve(out []byte, req Request) ([]byte, error) {
	op, isOp := req.Op()
	if isOp {
		if err := op.Validate(int(s.n.Load())); err != nil {
			code := CodeOf(err)
			if code == CodeOK || code == CodeInternal {
				code = CodeInvalid
			}
			s.col.observeError(code)
			resp := errResponse(req, code, err.Error())
			return appendFrame(out, &resp)
		}
	}
	select {
	case s.lock <- struct{}{}:
	case <-s.quit:
		resp := errResponse(req, CodeRetry, "server shutting down")
		return appendFrame(out, &resp)
	}
	defer func() { <-s.lock }()
	var resp Response
	if isOp {
		resp = s.serveOp(req, op)
	} else {
		resp = s.handleAdmin(req)
	}
	if resp.Code != CodeOK {
		s.col.observeError(resp.Code)
	}
	// Refresh the service's books while the service is held, so /metrics
	// follows the traffic and a scrape never touches the service. Gauges,
	// unlike Stats, waits for no adjustment running behind an answer.
	s.col.observeService(s.svc.Gauges())
	return appendFrame(out, &resp)
}

// serveOp serves one op through the service. A barrier failure behind a
// served op is the daemon's, not the sender's: it is logged and counted as an
// internal error, and the sender gets the op's outcome. An op the service
// served — answered, or a miss — is counted under its verb, as Stats counts
// it; one that failed inside the service only as an error.
func (s *Server) serveOp(req Request, op lsasg.Op) Response {
	if op.Kind == lsasg.PutKind {
		op.Value = bytes.Clone(op.Value) // the graph keeps it; the frame is reused
	}
	r, err := s.svc.Do(op)
	if errors.Is(err, lsasg.ErrBarrier) {
		log.Printf("wire: %s %d→%d was served, then: %v", req.Verb, op.Src, op.Dst, err)
		s.col.observeError(CodeInternal)
		err = r.Err
	}
	if err == nil || r.Err != nil {
		s.col.observe(req.Verb)
	}
	if err != nil {
		return errResponse(req, CodeOf(err), err.Error())
	}
	return opResponse(req, r)
}

// handleAdmin runs an admin verb against the service, idle between ops
// (TraceDump reads only the tracer).
func (s *Server) handleAdmin(req Request) Response {
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
	s.col.observe(req.Verb)
	return resp
}

func errResponse(req Request, code ErrCode, msg string) Response {
	return Response{Verb: req.Verb, Seq: req.Seq, Code: code, Msg: msg}
}

// opResponse maps one op's outcome onto the wire. A scan's entries are the
// service's result itself, encoded without a copy.
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
		resp.Entries = r.Entries
	}
	return resp
}
