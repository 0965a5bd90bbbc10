package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lsasg"
	"lsasg/internal/obs"
)

// Exhaustive codec coverage: every verb round-trips losslessly through
// Encode/Decode for both frame directions, and malformed frames fail
// loudly instead of decoding to garbage.

func sampleRequests() []Request {
	return []Request{
		{Verb: VerbRoute, Seq: 1, Src: 3, Dst: 17},
		{Verb: VerbGet, Seq: 2, Src: 0, Dst: 9},
		{Verb: VerbPut, Seq: 3, Src: 5, Dst: 9, Value: []byte("hello")},
		{Verb: VerbPut, Seq: 4, Src: 5, Dst: 9}, // nil value
		{Verb: VerbDelete, Seq: 5, Src: 1, Dst: 2},
		{Verb: VerbScan, Seq: 6, Src: 7, Dst: 0, Limit: 64},
		{Verb: VerbStats, Seq: 7},
		{Verb: VerbAddNode, Seq: 8},
		{Verb: VerbRemoveNode, Seq: 9, Dst: 31},
		{Verb: VerbCrash, Seq: 10, Dst: 4},
		{Verb: VerbVerify, Seq: 11},
		{Verb: VerbTraceDump, Seq: 12, Limit: 16},
		{Verb: VerbRoute, Seq: ^uint64(0), Src: -1, Dst: 1 << 40}, // extremes survive
	}
}

func sampleResponses() []Response {
	return []Response{
		{Verb: VerbRoute, Seq: 1, Node: 17, Distance: 5, Hops: 3},
		{Verb: VerbGet, Seq: 2, Found: true, Version: 7, Value: []byte("v"), Distance: 1, Hops: 1},
		{Verb: VerbGet, Seq: 3}, // miss: everything zero
		{Verb: VerbPut, Seq: 4, Existed: true, Version: 9},
		{Verb: VerbDelete, Seq: 5, Existed: true},
		{Verb: VerbScan, Seq: 6, Entries: []lsasg.KV{
			{Key: 3, Version: 1, Value: []byte("a")},
			{Key: 7, Version: 4, Value: nil},
			{Key: 12, Version: 2, Value: []byte("long enough to matter")},
		}},
		{Verb: VerbScan, Seq: 7}, // empty scan
		{Verb: VerbStats, Seq: 8, Stats: &StatsPayload{
			Cum: lsasg.Stats{
				Requests: 100, MeanRouteDistance: 2.5, MaxRouteDistance: 9,
				TotalTransformRounds: 42, WorkingSetBound: 123.75, Height: 6,
				DummyCount: 3, Rebalances: 2, MigratedKeys: 17,
				Shards: 4, CrossShardRequests: 31, Gets: 20, GetHits: 12,
				Puts: 15, PutInserts: 5, Deletes: 4, DeleteHits: 3,
				Scans: 8, ScannedEntries: 29,
			},
		}},
		{Verb: VerbCrash, Seq: 9, Code: CodeOutOfRange, Msg: "node index 99 not in [0, 32)"},
		{Verb: VerbVerify, Seq: 10, Code: CodeInternal, Msg: "invariant broken"},
		{Verb: VerbRoute, Seq: 11, Code: CodeRetry, Msg: "server shutting down"},
		{Verb: VerbTraceDump, Seq: 12, Spans: []obs.Span{
			{
				Seq: 41, Kind: obs.KindScan, Src: 7, Dst: 0, Start: 1700000000_000000001,
				TotalNanos: 48_500, Epoch: 12, RouteDistance: 0, RouteHops: 0,
				Cross: true,
				Legs: []obs.LegSpan{
					{Shard: 0, Distance: 0, Hops: 0, Epoch: 12, Nanos: 30_000},
					{Shard: 1, Distance: 0, Hops: 0, Epoch: 9, Nanos: 18_500},
				},
			},
			{
				Seq: 17, Kind: obs.KindRoute, Src: 3, Dst: 29, Start: 1700000000_000000002,
				TotalNanos: 9_000, Epoch: 4, RouteDistance: 5, RouteHops: 6,
				RouteMiss: true,
				Legs:      []obs.LegSpan{{Distance: 5, Hops: 6, Epoch: 4, Nanos: 9_000}},
			},
			{Seq: 2, Kind: obs.KindGet, Src: 1, Dst: 9}, // zero span, no legs
		}, Latency: []obs.VerbLatency{
			{Kind: obs.KindRoute, Count: 100, P50Nanos: 2048, P99Nanos: 16384},
			{Kind: obs.KindScan, Count: 4, P50Nanos: 32768, P99Nanos: 65536},
		}},
		{Verb: VerbTraceDump, Seq: 13}, // tracing disabled: empty dump
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		got, err := DecodeRequest(req.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", req.Verb, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip changed the request:\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		got, err := DecodeResponse(resp.Encode())
		if err != nil {
			t.Fatalf("%v seq %d: decode: %v", resp.Verb, resp.Seq, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip changed the response:\n got %+v\nwant %+v", got, resp)
		}
	}
}

// TestScanAnswerFromTheResult: a scan answered straight from the service's
// result — opResponse carries its entries, uncopied — decodes to those
// entries, and so does one appended after another frame.
func TestScanAnswerFromTheResult(t *testing.T) {
	kvs := []lsasg.KV{{Key: 3, Value: []byte("c"), Version: 7}, {Key: 5, Version: 9}, {Key: 8, Value: []byte("hh"), Version: 2}}
	req := Request{Verb: VerbScan, Seq: 12}
	want := opResponse(req, lsasg.OpResult{Op: lsasg.ScanOp(1, 3, 3), Entries: kvs})
	if &want.Entries[0] != &kvs[0] {
		t.Fatal("the answer copied the service's entries")
	}
	first := Response{Verb: VerbRoute, Seq: 11, Code: CodeUnknownKey, Msg: "gone"}
	buf, err := appendFrame(nil, &first)
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = appendFrame(buf, &want); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf)
	for _, w := range []Response{first, want} {
		body, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeResponse(body); err != nil || !reflect.DeepEqual(got, w) {
			t.Fatalf("appended frame decodes to %+v (%v), want %+v", got, err, w)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 4096)}
	for _, body := range bodies {
		if err := WriteFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("frame round trip: got %d bytes, want %d", len(got), len(body))
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("read past the last frame must fail")
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write must fail")
	}
	// An appended frame over the limit fails and leaves the buffer as it was.
	prefix := []byte("answers so far")
	if got, err := appendRequestFrame(prefix, Request{Verb: VerbPut, Value: make([]byte, MaxFrame)}); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("oversized request frame: err %v, buffer %d bytes, want an error and the %d-byte prefix", err, len(got), len(prefix))
	}
	if got, err := appendFrame(prefix, &Response{Verb: VerbGet, Value: make([]byte, MaxFrame)}); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("oversized answer frame: err %v, buffer %d bytes, want an error and the %d-byte prefix", err, len(got), len(prefix))
	}
	// A header promising more than MaxFrame is refused before allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized header must fail")
	}
	// A header promising more than the stream holds reports truncation.
	short := append([]byte{0, 0, 0, 10}, 'x')
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("truncated body must fail")
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	good := Request{Verb: VerbPut, Seq: 1, Src: 2, Dst: 3, Value: []byte("v")}.Encode()
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0),
		"verb zero":      append([]byte{0}, good[1:]...),
		"verb too big":   append([]byte{byte(verbMax) + 1}, good[1:]...),
		"response flag":  append([]byte{byte(VerbPut | responseFlag)}, good[1:]...),
	}
	for name, body := range cases {
		if _, err := DecodeRequest(body); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

func TestDecodeResponseRejectsMalformed(t *testing.T) {
	good := sampleResponses()[5].Encode() // the entry-carrying scan
	withStats := sampleResponses()[7].Encode()
	cases := map[string][]byte{
		"empty":           {},
		"truncated":       good[:len(good)-2],
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"no flag":         append([]byte{byte(VerbScan)}, good[1:]...),
		"bad verb":        append([]byte{byte(responseFlag)}, good[1:]...),
		"truncated stats": withStats[:len(withStats)-8],
	}
	for name, body := range cases {
		if _, err := DecodeResponse(body); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

// TestDecodeResponseCountBombs feeds frames whose section counts (entries,
// spans, span legs, latency summaries) promise far more elements than the
// frame could hold: the decoder must refuse without allocating for them.
// Offsets count back from the frame tail, which is
// [entryCount:4][hasStats:1][spanCount:4][latencyCount:4].
func TestDecodeResponseCountBombs(t *testing.T) {
	body := Response{Verb: VerbScan, Seq: 1}.Encode()
	bombAt := func(fromEnd int) []byte {
		b := append([]byte{}, body...)
		copy(b[len(b)-fromEnd:], []byte{0xff, 0xff, 0xff, 0x0f})
		return b
	}
	cases := map[string][]byte{
		"entry count":   bombAt(13),
		"span count":    bombAt(8),
		"latency count": bombAt(4),
	}
	// A leg-count bomb needs a span whose leg count is the last field.
	withSpan := Response{Verb: VerbTraceDump, Seq: 2, Spans: []obs.Span{{Seq: 1}}}.Encode()
	legBomb := append([]byte{}, withSpan...)
	copy(legBomb[len(legBomb)-8:], []byte{0xff, 0xff, 0xff, 0x0f})
	cases["leg count"] = legBomb
	for name, b := range cases {
		if _, err := DecodeResponse(b); err == nil {
			t.Errorf("%s bomb must fail to decode", name)
		}
	}
}

func TestRequestOpMapping(t *testing.T) {
	cases := []struct {
		req  Request
		want lsasg.Op
	}{
		{Request{Verb: VerbRoute, Src: 1, Dst: 2}, lsasg.RouteOp(1, 2)},
		{Request{Verb: VerbGet, Src: 1, Dst: 2}, lsasg.GetOp(1, 2)},
		{Request{Verb: VerbPut, Src: 1, Dst: 2, Value: []byte("v")}, lsasg.PutOp(1, 2, []byte("v"))},
		{Request{Verb: VerbDelete, Src: 1, Dst: 2}, lsasg.DeleteOp(1, 2)},
		{Request{Verb: VerbScan, Src: 1, Dst: 2, Limit: 5}, lsasg.ScanOp(1, 2, 5)},
	}
	for _, tc := range cases {
		op, ok := tc.req.Op()
		if !ok || !reflect.DeepEqual(op, tc.want) {
			t.Errorf("%v.Op() = %+v, %v; want %+v", tc.req.Verb, op, ok, tc.want)
		}
		// And the reverse direction agrees.
		back, ok := RequestFor(tc.want)
		if !ok || !reflect.DeepEqual(back, tc.req) {
			t.Errorf("RequestFor(%+v) = %+v, %v; want %+v", tc.want, back, ok, tc.req)
		}
	}
	for _, v := range []Verb{VerbStats, VerbAddNode, VerbRemoveNode, VerbCrash, VerbVerify, VerbTraceDump} {
		if _, ok := (Request{Verb: v}).Op(); ok {
			t.Errorf("admin verb %v must not map to an op", v)
		}
	}
}

func TestErrorMappingAcrossTheWire(t *testing.T) {
	cases := []struct {
		err      error
		code     ErrCode
		sentinel error
	}{
		{fmt.Errorf("ctx: %w", lsasg.ErrUnknownKey), CodeUnknownKey, lsasg.ErrUnknownKey},
		{fmt.Errorf("ctx: %w", lsasg.ErrDeadNode), CodeDeadNode, lsasg.ErrDeadNode},
		{fmt.Errorf("ctx: %w", lsasg.ErrOutOfRange), CodeOutOfRange, lsasg.ErrOutOfRange},
		{ErrRetry, CodeRetry, ErrRetry},
		{errors.New("anything else"), CodeInternal, nil},
	}
	for _, tc := range cases {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %v, want %v", tc.err, got, tc.code)
		}
		resp := Response{Verb: VerbGet, Code: tc.code, Msg: tc.err.Error()}
		remote := resp.Err()
		if remote == nil {
			t.Fatalf("code %v must reconstruct an error", tc.code)
		}
		if tc.sentinel != nil && !errors.Is(remote, tc.sentinel) {
			t.Errorf("reconstructed %q does not match its sentinel", remote)
		}
		if !strings.Contains(remote.Error(), tc.err.Error()) {
			t.Errorf("reconstructed %q lost the remote message %q", remote, tc.err)
		}
	}
	if CodeOf(nil) != CodeOK {
		t.Error("nil error must map to CodeOK")
	}
	if (Response{Code: CodeOK}).Err() != nil {
		t.Error("CodeOK must reconstruct nil")
	}
}

func TestRetryableCodes(t *testing.T) {
	want := map[ErrCode]bool{
		CodeOK: false, CodeUnknownKey: false, CodeDeadNode: false,
		CodeOutOfRange: false, CodeRetry: true, CodeInvalid: false, CodeInternal: false,
	}
	for code, retryable := range want {
		if code.Retryable() != retryable {
			t.Errorf("%d.Retryable() = %v, want %v", code, !retryable, retryable)
		}
	}
}

func TestVerbString(t *testing.T) {
	for v := VerbRoute; v <= verbMax; v++ {
		if s := v.String(); strings.HasPrefix(s, "verb(") {
			t.Errorf("verb %d has no name", v)
		}
		if v.String() != (v | responseFlag).String() {
			t.Errorf("response flag changes verb %d's name", v)
		}
	}
	if s := Verb(0).String(); !strings.HasPrefix(s, "verb(") {
		t.Errorf("invalid verb renders as %q", s)
	}
}
