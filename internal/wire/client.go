package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// Client speaks the wire protocol to one server. Connections are pooled:
// each synchronous call checks one out, round-trips a frame, and returns
// it. A request is sent again only when the server provably did not serve
// it — it answered CodeRetry (shutting down), or no connection could be
// opened — with capped exponential backoff. Every other answer, an unknown
// key or a dead node included, is final, and so is a transport fault on an
// open connection: the server may have served the frame, and serving it
// twice would adjust twice and bump a Put's version.
type Client struct {
	addr string
	pool chan *clientConn
	seq  atomic.Uint64

	timeout time.Duration
}

type clientConn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	frame []byte // the request frame being written, reused
}

// send encodes req's frame into cc's reused buffer and buffers it for
// writing.
func (cc *clientConn) send(req Request) error {
	var err error
	if cc.frame, err = appendRequestFrame(cc.frame[:0], req); err != nil {
		return err
	}
	_, err = cc.bw.Write(cc.frame)
	return err
}

const (
	// maxAttempts caps Do's tries per request, first included.
	maxAttempts = 4
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithPoolSize caps idle pooled connections (default 4).
func WithPoolSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.pool = make(chan *clientConn, n)
		}
	}
}

// WithTimeout bounds each frame write/read (default 30s; zero disables).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// DialClient connects to a server, failing fast if it is unreachable.
func DialClient(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:    addr,
		pool:    make(chan *clientConn, 4),
		timeout: 30 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.putConn(cc)
	return c, nil
}

// Close tears down every pooled connection.
func (c *Client) Close() {
	for {
		select {
		case cc := <-c.pool:
			cc.nc.Close()
		default:
			return
		}
	}
}

func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &clientConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

func (c *Client) getConn() (*clientConn, error) {
	select {
	case cc := <-c.pool:
		return cc, nil
	default:
		return c.dial()
	}
}

func (c *Client) putConn(cc *clientConn) {
	select {
	case c.pool <- cc:
	default:
		cc.nc.Close()
	}
}

// roundTrip writes one request and reads its response on cc. Any transport
// or protocol fault closes the connection.
func (c *Client) roundTrip(cc *clientConn, req Request) (Response, error) {
	if c.timeout > 0 {
		cc.nc.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := cc.send(req); err != nil {
		cc.nc.Close()
		return Response{}, err
	}
	if err := cc.bw.Flush(); err != nil {
		cc.nc.Close()
		return Response{}, err
	}
	body, err := ReadFrame(cc.br)
	if err != nil {
		cc.nc.Close()
		return Response{}, err
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		cc.nc.Close()
		return Response{}, err
	}
	if resp.Seq != req.Seq {
		cc.nc.Close()
		return Response{}, fmt.Errorf("wire: response seq %d for request %d", resp.Seq, req.Seq)
	}
	c.putConn(cc)
	return resp, nil
}

// Do round-trips one request, retrying a failed dial and a retryable code
// with capped exponential backoff (1ms doubling, 50ms cap); a transport
// fault on an open connection is returned as it is. The response is returned
// alongside its decoded error, if any.
func (c *Client) Do(req Request) (Response, error) {
	req.Seq = c.seq.Add(1)
	var last error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			d := time.Millisecond << (attempt - 1)
			if d > 50*time.Millisecond {
				d = 50 * time.Millisecond
			}
			time.Sleep(d)
		}
		cc, err := c.getConn()
		if err != nil {
			last = err
			continue
		}
		resp, err := c.roundTrip(cc, req)
		if err != nil {
			return Response{}, err
		}
		if resp.Code != CodeOK && resp.Code.Retryable() {
			last = resp.Err()
			continue
		}
		return resp, resp.Err()
	}
	return Response{}, fmt.Errorf("wire: request failed after %d attempts: %w", maxAttempts, last)
}

// RequestFor converts a public op envelope into its wire request (Seq
// unset). The second result is false for an unmapped kind.
func RequestFor(op lsasg.Op) (Request, bool) {
	var v Verb
	switch op.Kind {
	case lsasg.RouteKind:
		v = VerbRoute
	case lsasg.GetKind:
		v = VerbGet
	case lsasg.PutKind:
		v = VerbPut
	case lsasg.DeleteKind:
		v = VerbDelete
	case lsasg.ScanKind:
		v = VerbScan
	default:
		return Request{}, false
	}
	return Request{Verb: v, Src: int64(op.Src), Dst: int64(op.Dst), Limit: int64(op.Limit), Value: op.Value}, true
}

// --- synchronous op surface -------------------------------------------------

// Route serves one communication request src→dst.
func (c *Client) Route(src, dst int) (Response, error) {
	return c.Do(Request{Verb: VerbRoute, Src: int64(src), Dst: int64(dst)})
}

// Get reads key's value as an access from src.
func (c *Client) Get(src, key int) (value []byte, version int64, found bool, err error) {
	resp, err := c.Do(Request{Verb: VerbGet, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return nil, 0, false, err
	}
	return resp.Value, resp.Version, resp.Found, nil
}

// Put writes value to key as an access from src.
func (c *Client) Put(src, key int, value []byte) (version int64, existed bool, err error) {
	resp, err := c.Do(Request{Verb: VerbPut, Src: int64(src), Dst: int64(key), Value: value})
	if err != nil {
		return 0, false, err
	}
	return resp.Version, resp.Existed, nil
}

// Delete removes key from the keyspace.
func (c *Client) Delete(src, key int) (existed bool, err error) {
	resp, err := c.Do(Request{Verb: VerbDelete, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return false, err
	}
	return resp.Existed, nil
}

// Scan reads up to limit entries in ascending key order from the first
// key ≥ start.
func (c *Client) Scan(src, start, limit int) ([]lsasg.KV, error) {
	resp, err := c.Do(Request{Verb: VerbScan, Src: int64(src), Dst: int64(start), Limit: int64(limit)})
	if err != nil {
		return nil, err
	}
	kvs := make([]lsasg.KV, len(resp.Entries))
	for i, ent := range resp.Entries {
		kvs[i] = lsasg.KV{Key: int(ent.Key), Value: ent.Value, Version: ent.Version}
	}
	return kvs, nil
}

// --- admin surface ----------------------------------------------------------

// Stats returns the cumulative service statistics.
func (c *Client) Stats() (StatsPayload, error) {
	resp, err := c.Do(Request{Verb: VerbStats})
	if err != nil {
		return StatsPayload{}, err
	}
	if resp.Stats == nil {
		return StatsPayload{}, fmt.Errorf("wire: stats response carried no payload")
	}
	return *resp.Stats, nil
}

// AddNode joins a new node and returns its index.
func (c *Client) AddNode() (int, error) {
	resp, err := c.Do(Request{Verb: VerbAddNode})
	if err != nil {
		return 0, err
	}
	return int(resp.Node), nil
}

// RemoveNode removes node idx.
func (c *Client) RemoveNode(idx int) error {
	_, err := c.Do(Request{Verb: VerbRemoveNode, Dst: int64(idx)})
	return err
}

// Crash injects a crash failure on node idx.
func (c *Client) Crash(idx int) error {
	_, err := c.Do(Request{Verb: VerbCrash, Dst: int64(idx)})
	return err
}

// Verify checks the remote topology's structural invariants.
func (c *Client) Verify() error {
	_, err := c.Do(Request{Verb: VerbVerify})
	return err
}

// TraceDump fetches the daemon's slowest-span ring (at most limit spans,
// 0 for all retained) plus per-verb latency summaries. Fails with
// CodeInvalid when the daemon runs without tracing.
func (c *Client) TraceDump(limit int) ([]obs.Span, []obs.VerbLatency, error) {
	resp, err := c.Do(Request{Verb: VerbTraceDump, Limit: int64(limit)})
	if err != nil {
		return nil, nil, err
	}
	return resp.Spans, resp.Latency, nil
}

// --- pipelined replay -------------------------------------------------------

// Replay pipelines a trace down ONE connection in order, follows it with a
// Stats frame, and collects every response. The server serves one
// connection's frames in read order, so the trailing Stats is answered
// after the whole trace: against a fresh daemon the returned
// StatsPayload.Cum is exactly what Stats reports after an in-process
// ServeOps call over the same trace. No retries happen here — a mid-trace
// failure surfaces in the responses so the caller sees the trace's true
// outcome.
func (c *Client) Replay(ops []lsasg.Op) ([]Response, StatsPayload, error) {
	for _, op := range ops {
		if _, ok := RequestFor(op); !ok {
			return nil, StatsPayload{}, fmt.Errorf("wire: op kind %v cannot replay", op.Kind)
		}
	}
	cc, err := c.getConn()
	if err != nil {
		return nil, StatsPayload{}, err
	}
	base := c.seq.Add(uint64(len(ops)) + 1)
	first := base - uint64(len(ops)) // ops get first..base-1, Stats gets base

	writeErr := make(chan error, 1)
	go func() {
		for i, op := range ops {
			req, _ := RequestFor(op)
			req.Seq = first + uint64(i)
			if err := cc.send(req); err != nil {
				writeErr <- err
				return
			}
		}
		if err := cc.send(Request{Verb: VerbStats, Seq: base}); err != nil {
			writeErr <- err
			return
		}
		writeErr <- cc.bw.Flush()
	}()

	resps := make([]Response, 0, len(ops))
	var stats StatsPayload
	for i := 0; i <= len(ops); i++ {
		if c.timeout > 0 {
			cc.nc.SetReadDeadline(time.Now().Add(c.timeout))
		}
		body, err := ReadFrame(cc.br)
		if err == nil {
			var resp Response
			if resp, err = DecodeResponse(body); err == nil {
				if want := first + uint64(i); resp.Seq != want {
					err = fmt.Errorf("wire: replay response seq %d, want %d", resp.Seq, want)
				} else if i < len(ops) {
					resps = append(resps, resp)
				} else if resp.Stats != nil {
					stats = *resp.Stats
				} else if e := resp.Err(); e != nil {
					err = e
				} else {
					err = fmt.Errorf("wire: stats response carried no payload")
				}
			}
		}
		if err != nil {
			cc.nc.Close()
			<-writeErr
			return resps, StatsPayload{}, err
		}
	}
	if err := <-writeErr; err != nil {
		cc.nc.Close()
		return resps, StatsPayload{}, err
	}
	c.putConn(cc)
	return resps, stats, nil
}
