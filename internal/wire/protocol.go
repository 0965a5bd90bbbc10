// Package wire is the networked runtime of the self-adjusting skip graph: a
// length-prefixed binary protocol carrying the full op envelope
// (Route/Get/Put/Delete/Scan) plus admin verbs (Stats, AddNode, RemoveNode,
// Crash, Verify, TraceDump), a Server that fronts any lsasg.Service over TCP, and a
// pooling Client with transient-error retry. The deterministic serving
// contract survives the wire: a server serves ops one at a time, in arrival
// order, through Service.Do — the one-op window of the driver ServeOps
// runs — so a trace replayed through a connection produces stats
// byte-identical to the same trace served in-process (see docs/WIRE.md).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"lsasg"
	"lsasg/internal/obs"
)

// ErrRetry reports an op the server turned away unserved because it was
// shutting down. The op itself was fine; resubmit it. The client's Do
// retries it automatically.
var ErrRetry = errors.New("wire: server shutting down, retry")

// Verb discriminates one request frame. Responses echo the request verb
// with the high bit set.
type Verb uint8

const (
	// VerbRoute serves one communication request src→dst.
	VerbRoute Verb = 1 + iota
	// VerbGet reads Dst's value as an access from Src.
	VerbGet
	// VerbPut writes Value to Dst as an access from Src.
	VerbPut
	// VerbDelete removes Dst from the keyspace.
	VerbDelete
	// VerbScan reads up to Limit entries from the first key ≥ Dst.
	VerbScan
	// VerbStats returns the cumulative service statistics.
	VerbStats
	// VerbAddNode joins a new node and returns its index.
	VerbAddNode
	// VerbRemoveNode removes node Dst.
	VerbRemoveNode
	// VerbCrash injects a crash failure on node Dst.
	VerbCrash
	// VerbVerify checks all structural invariants of the topology.
	VerbVerify
	// VerbTraceDump returns the slowest-span exemplars and per-verb latency
	// summaries from a tracing-enabled daemon. Limit caps the span count
	// (0 returns every retained span). It reads the tracer, not the service.
	VerbTraceDump

	verbMax = VerbTraceDump

	// responseFlag marks a frame as the response to the verb in its low
	// bits.
	responseFlag Verb = 0x80
)

// String names the verb (response flag stripped).
func (v Verb) String() string {
	switch v &^ responseFlag {
	case VerbRoute:
		return "route"
	case VerbGet:
		return "get"
	case VerbPut:
		return "put"
	case VerbDelete:
		return "delete"
	case VerbScan:
		return "scan"
	case VerbStats:
		return "stats"
	case VerbAddNode:
		return "addnode"
	case VerbRemoveNode:
		return "removenode"
	case VerbCrash:
		return "crash"
	case VerbVerify:
		return "verify"
	case VerbTraceDump:
		return "tracedump"
	}
	return fmt.Sprintf("verb(%d)", uint8(v))
}

// ErrCode classifies a non-OK response. Codes are stable wire contract —
// the client maps them back onto the root error sentinels so errors.Is
// works across the process boundary.
type ErrCode uint8

const (
	// CodeOK is a successful response.
	CodeOK ErrCode = iota
	// CodeUnknownKey maps lsasg.ErrUnknownKey: the endpoint is not in the
	// keyspace (deleted, removed, or never joined). A deterministic miss —
	// one op holds the service at a time and barriers run inside it, so no
	// key is ever mid-flight — and not retryable: only a Put of the key
	// changes the answer.
	CodeUnknownKey
	// CodeDeadNode maps lsasg.ErrDeadNode: the op ran into a crash-failed
	// node before a repair. Final: the op was served and counted, and a route
	// that met a dead intermediate was also adjusted, so sending it again
	// would serve it again.
	CodeDeadNode
	// CodeOutOfRange maps lsasg.ErrOutOfRange: an endpoint outside [0, N).
	CodeOutOfRange
	// CodeRetry reports an op turned away unserved by a server that is
	// shutting down. The op itself was fine — resubmit it.
	CodeRetry
	// CodeInvalid reports a malformed or unsupported request.
	CodeInvalid
	// CodeInternal is any other server-side failure.
	CodeInternal
)

const (
	// MaxFrame bounds one frame's body (verb + seq + payload). A scan of
	// the whole keyspace must fit, so the bound is generous.
	MaxFrame = 4 << 20
	// headerLen is the length prefix.
	headerLen = 4
)

// Request is one decoded request frame: the verb plus the op-envelope
// fields it uses (unused fields are zero and still round-trip).
type Request struct {
	Verb  Verb
	Seq   uint64
	Src   int64
	Dst   int64
	Limit int64
	Value []byte
}

// Entry is one scanned KV entry on the wire.
type Entry struct {
	Key     int64
	Version int64
	Value   []byte
}

// StatsPayload carries VerbStats' result: the cumulative service statistics
// — after a replay into a fresh daemon, what Stats reports after the
// in-process ServeOps call over the same trace.
type StatsPayload struct {
	Cum lsasg.Stats
}

// Response is one decoded response frame. Code discriminates success; on
// failure Msg carries the error text and the result fields are zero.
type Response struct {
	Verb Verb
	Seq  uint64
	Code ErrCode
	Msg  string

	Found   bool
	Existed bool
	Version int64
	Node    int64

	Distance int64
	Hops     int64

	Value   []byte
	Entries []Entry

	Stats *StatsPayload

	// Spans and Latency carry VerbTraceDump's result: the slowest-span
	// exemplars (slowest first) and the per-verb latency summaries. Empty
	// on every other verb.
	Spans   []obs.Span
	Latency []obs.VerbLatency
}

// --- frame I/O -------------------------------------------------------------

// WriteFrame writes one length-prefixed frame body.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds the %d limit", len(body), MaxFrame)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body, refusing frames over
// MaxFrame.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one frame into buf's storage, growing it when the
// frame does not fit, and returns the body: buf's memory, valid until buf is
// reused. The header is refused before anything is allocated for the body.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	hdr := slices.Grow(buf[:0], headerLen)[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame body %d bytes exceeds the %d limit", n, MaxFrame)
	}
	body := slices.Grow(hdr[:0], int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// openFrame reserves a length prefix at the end of buf; the body is appended
// after it and closeFrame fills it in.
func openFrame(buf []byte) []byte { return append(buf, make([]byte, headerLen)...) }

// closeFrame completes the frame opened at buf[start:]. A body over MaxFrame
// is cut off again, frame and all, and fails.
func closeFrame(buf []byte, start int) ([]byte, error) {
	body := len(buf) - start - headerLen
	if body > MaxFrame {
		return buf[:start], fmt.Errorf("wire: frame body %d bytes exceeds the %d limit", body, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// appendFrame appends r's frame — length prefix and body — to buf. The
// scan entries of kvs follow r.Entries in the one entry list (see
// appendResponse).
func appendFrame(buf []byte, r *Response, kvs []lsasg.KV) ([]byte, error) {
	return closeFrame(appendResponse(openFrame(buf), r, kvs), len(buf))
}

// appendRequestFrame appends r's frame — length prefix and body — to buf.
func appendRequestFrame(buf []byte, r Request) ([]byte, error) {
	return closeFrame(r.AppendEncode(openFrame(buf)), len(buf))
}

// --- encoding primitives ---------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) u32(v int) { e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v)) }
func (e *encoder) bytes(b []byte) {
	e.u32(len(b))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) {
	e.u32(len(s))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated frame")
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) bool() bool   { return d.u8() != 0 }
func (d *decoder) bytes() []byte {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if uint32(len(d.buf)) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	if n == 0 {
		return nil
	}
	return b
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after frame payload", len(d.buf))
	}
	return nil
}

// --- request codec ---------------------------------------------------------

// Encode serializes the request into a frame body.
func (r Request) Encode() []byte { return r.AppendEncode(nil) }

// AppendEncode appends the request's frame body to buf and returns the
// extended buffer.
func (r Request) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(r.Verb))
	e.u64(r.Seq)
	e.i64(r.Src)
	e.i64(r.Dst)
	e.i64(r.Limit)
	e.bytes(r.Value)
	return e.buf
}

// DecodeRequest parses one request frame body.
func DecodeRequest(body []byte) (Request, error) {
	d := decoder{buf: body}
	var r Request
	r.Verb = Verb(d.u8())
	r.Seq = d.u64()
	r.Src = d.i64()
	r.Dst = d.i64()
	r.Limit = d.i64()
	r.Value = d.bytes()
	if err := d.done(); err != nil {
		return Request{}, err
	}
	if r.Verb&responseFlag != 0 || r.Verb < VerbRoute || r.Verb > verbMax {
		return Request{}, fmt.Errorf("wire: invalid request verb %d", uint8(r.Verb))
	}
	return r, nil
}

// Op converts an op-carrying request into the public envelope. Admin verbs
// have no envelope.
func (r Request) Op() (lsasg.Op, bool) {
	switch r.Verb {
	case VerbRoute:
		return lsasg.RouteOp(int(r.Src), int(r.Dst)), true
	case VerbGet:
		return lsasg.GetOp(int(r.Src), int(r.Dst)), true
	case VerbPut:
		return lsasg.PutOp(int(r.Src), int(r.Dst), r.Value), true
	case VerbDelete:
		return lsasg.DeleteOp(int(r.Src), int(r.Dst)), true
	case VerbScan:
		return lsasg.ScanOp(int(r.Src), int(r.Dst), int(r.Limit)), true
	}
	return lsasg.Op{}, false
}

// --- response codec --------------------------------------------------------

func encodeStats(e *encoder, s *StatsPayload) {
	c := s.Cum
	e.i64(int64(c.Requests))
	e.f64(c.MeanRouteDistance)
	e.i64(int64(c.MaxRouteDistance))
	e.i64(c.TotalTransformRounds)
	e.f64(c.WorkingSetBound)
	e.i64(int64(c.Height))
	e.i64(int64(c.DummyCount))
	e.i64(c.Rebalances)
	e.i64(c.MigratedKeys)
}

func decodeStats(d *decoder) *StatsPayload {
	var s StatsPayload
	c := &s.Cum
	c.Requests = int(d.i64())
	c.MeanRouteDistance = d.f64()
	c.MaxRouteDistance = int(d.i64())
	c.TotalTransformRounds = d.i64()
	c.WorkingSetBound = d.f64()
	c.Height = int(d.i64())
	c.DummyCount = int(d.i64())
	c.Rebalances = d.i64()
	c.MigratedKeys = d.i64()
	return &s
}

// Encode serializes the response into a frame body.
func (r Response) Encode() []byte { return r.AppendEncode(nil) }

// AppendEncode appends the response's frame body to buf and returns the
// extended buffer.
func (r Response) AppendEncode(buf []byte) []byte { return appendResponse(buf, &r, nil) }

// appendResponse is the response encoder. The entry list is r.Entries
// followed by kvs, so a server answers a scan straight from the service's
// result, with no wire copy of its entries; a decoded frame carries them all
// in Entries.
func appendResponse(buf []byte, r *Response, kvs []lsasg.KV) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(r.Verb | responseFlag))
	e.u64(r.Seq)
	e.u8(uint8(r.Code))
	e.str(r.Msg)
	e.bool(r.Found)
	e.bool(r.Existed)
	e.i64(r.Version)
	e.i64(r.Node)
	e.i64(r.Distance)
	e.i64(r.Hops)
	e.bytes(r.Value)
	e.u32(len(r.Entries) + len(kvs))
	for _, ent := range r.Entries {
		e.i64(ent.Key)
		e.i64(ent.Version)
		e.bytes(ent.Value)
	}
	for _, kv := range kvs {
		e.i64(int64(kv.Key))
		e.i64(kv.Version)
		e.bytes(kv.Value)
	}
	if r.Stats != nil {
		e.bool(true)
		encodeStats(&e, r.Stats)
	} else {
		e.bool(false)
	}
	e.u32(len(r.Spans))
	for _, s := range r.Spans {
		encodeSpan(&e, s)
	}
	e.u32(len(r.Latency))
	for _, l := range r.Latency {
		e.i64(l.Kind)
		e.i64(l.Count)
		e.i64(l.P50Nanos)
		e.i64(l.P99Nanos)
	}
	return e.buf
}

// Span and latency wire sizes: the fixed prefix of one span (nine i64s, two
// bools, one leg count) and the full size of one leg / one latency entry.
// The decoder's count bombs are rejected against them before allocating.
const (
	spanMinWire     = 9*8 + 2 + 4
	legWire         = 5 * 8
	verbLatencyWire = 4 * 8
)

func encodeSpan(e *encoder, s obs.Span) {
	e.i64(s.Seq)
	e.i64(s.Kind)
	e.i64(s.Src)
	e.i64(s.Dst)
	e.i64(s.Start)
	e.i64(s.TotalNanos)
	e.i64(s.Epoch)
	e.i64(s.RouteDistance)
	e.i64(s.RouteHops)
	e.bool(s.RouteMiss)
	e.bool(s.Cross)
	e.u32(len(s.Legs))
	for _, l := range s.Legs {
		e.i64(l.Shard)
		e.i64(l.Distance)
		e.i64(l.Hops)
		e.i64(l.Epoch)
		e.i64(l.Nanos)
	}
}

func decodeSpan(d *decoder) obs.Span {
	var s obs.Span
	s.Seq = d.i64()
	s.Kind = d.i64()
	s.Src = d.i64()
	s.Dst = d.i64()
	s.Start = d.i64()
	s.TotalNanos = d.i64()
	s.Epoch = d.i64()
	s.RouteDistance = d.i64()
	s.RouteHops = d.i64()
	s.RouteMiss = d.bool()
	s.Cross = d.bool()
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return s
	}
	m := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if uint64(m)*legWire > uint64(len(d.buf)) {
		d.fail()
		return s
	}
	for i := uint32(0); i < m && d.err == nil; i++ {
		s.Legs = append(s.Legs, obs.LegSpan{
			Shard:    d.i64(),
			Distance: d.i64(),
			Hops:     d.i64(),
			Epoch:    d.i64(),
			Nanos:    d.i64(),
		})
	}
	return s
}

// DecodeResponse parses one response frame body.
func DecodeResponse(body []byte) (Response, error) {
	d := decoder{buf: body}
	var r Response
	verb := Verb(d.u8())
	r.Seq = d.u64()
	r.Code = ErrCode(d.u8())
	r.Msg = string(d.bytes())
	r.Found = d.bool()
	r.Existed = d.bool()
	r.Version = d.i64()
	r.Node = d.i64()
	r.Distance = d.i64()
	r.Hops = d.i64()
	r.Value = d.bytes()
	if d.err == nil && len(d.buf) >= 4 {
		n := binary.BigEndian.Uint32(d.buf)
		d.buf = d.buf[4:]
		// Each entry is at least 20 bytes; reject counts the frame cannot
		// hold before allocating.
		if uint64(n)*20 > uint64(len(d.buf)) {
			d.fail()
		} else if n > 0 {
			r.Entries = make([]Entry, 0, n)
			for i := uint32(0); i < n && d.err == nil; i++ {
				r.Entries = append(r.Entries, Entry{Key: d.i64(), Version: d.i64(), Value: d.bytes()})
			}
		}
	} else {
		d.fail()
	}
	if d.bool() {
		r.Stats = decodeStats(&d)
	}
	if d.err == nil && len(d.buf) >= 4 {
		n := binary.BigEndian.Uint32(d.buf)
		d.buf = d.buf[4:]
		if uint64(n)*spanMinWire > uint64(len(d.buf)) {
			d.fail()
		} else {
			for i := uint32(0); i < n && d.err == nil; i++ {
				r.Spans = append(r.Spans, decodeSpan(&d))
			}
		}
	} else {
		d.fail()
	}
	if d.err == nil && len(d.buf) >= 4 {
		n := binary.BigEndian.Uint32(d.buf)
		d.buf = d.buf[4:]
		if uint64(n)*verbLatencyWire > uint64(len(d.buf)) {
			d.fail()
		} else {
			for i := uint32(0); i < n && d.err == nil; i++ {
				r.Latency = append(r.Latency, obs.VerbLatency{
					Kind:     d.i64(),
					Count:    d.i64(),
					P50Nanos: d.i64(),
					P99Nanos: d.i64(),
				})
			}
		}
	} else {
		d.fail()
	}
	if err := d.done(); err != nil {
		return Response{}, err
	}
	if verb&responseFlag == 0 {
		return Response{}, fmt.Errorf("wire: response frame missing the response flag (verb %d)", uint8(verb))
	}
	r.Verb = verb &^ responseFlag
	if r.Verb < VerbRoute || r.Verb > verbMax {
		return Response{}, fmt.Errorf("wire: invalid response verb %d", uint8(r.Verb))
	}
	return r, nil
}

// --- error mapping ---------------------------------------------------------

// CodeOf classifies an error into its wire code via the root sentinels.
func CodeOf(err error) ErrCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, lsasg.ErrUnknownKey):
		return CodeUnknownKey
	case errors.Is(err, lsasg.ErrDeadNode):
		return CodeDeadNode
	case errors.Is(err, lsasg.ErrOutOfRange):
		return CodeOutOfRange
	case errors.Is(err, ErrRetry):
		return CodeRetry
	}
	return CodeInternal
}

// Err reconstructs a response's error on the client side, re-attaching the
// matching root sentinel so errors.Is carries across the wire. A CodeOK
// response returns nil.
func (r Response) Err() error {
	switch r.Code {
	case CodeOK:
		return nil
	case CodeUnknownKey:
		return fmt.Errorf("%w (remote: %s)", lsasg.ErrUnknownKey, r.Msg)
	case CodeDeadNode:
		return fmt.Errorf("%w (remote: %s)", lsasg.ErrDeadNode, r.Msg)
	case CodeOutOfRange:
		return fmt.Errorf("%w (remote: %s)", lsasg.ErrOutOfRange, r.Msg)
	case CodeRetry:
		return fmt.Errorf("%w (remote: %s)", ErrRetry, r.Msg)
	case CodeInvalid:
		return fmt.Errorf("wire: invalid request (remote: %s)", r.Msg)
	}
	return fmt.Errorf("wire: remote error: %s", r.Msg)
}

// Retryable reports whether the code marks a transient condition a client
// should retry: only a server shutting down, which turned the op away
// unserved. An unknown key or a dead node answers an op that was served —
// its miss, counted and, for a route past a dead intermediate, adjusted —
// so sending it again would serve it again.
func (c ErrCode) Retryable() bool {
	return c == CodeRetry
}
