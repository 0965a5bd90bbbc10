package wire

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"lsasg"
)

// A server connection reads every frame into one reused buffer and appends
// every answer to one reused buffer. These tests hold the two ownership
// rules that makes necessary: nothing the service keeps aliases a frame, and
// no answer carries bytes of the one before it.

// rawConn dials addr without a Client, so a test controls exactly which
// frames share a write.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, bufio.NewReader(nc)
}

// readAnswer reads and decodes one answer, which must be seq's.
func readAnswer(t *testing.T, br *bufio.Reader, seq uint64) Response {
	t.Helper()
	body, err := ReadFrame(br)
	if err != nil {
		t.Fatalf("seq %d: %v", seq, err)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatalf("seq %d: the answer does not decode: %v", seq, err)
	}
	if resp.Seq != seq {
		t.Fatalf("answer for seq %d, want %d", resp.Seq, seq)
	}
	return resp
}

// TestPutValueOutlivesTheFrame pipelines a Put of key k, then more than a
// read buffer's worth of scans, then a Get of k, in one stream. The scans
// carry an unused value as long as the Put's, so each one overwrites the
// bytes the Put's value arrived in: the Get must still return them exactly.
func TestPutValueOutlivesTheFrame(t *testing.T) {
	const n, k, scans = 32, 7, 200
	nw, err := lsasg.New(n, lsasg.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := listen(t, nw)
	nc, br := rawConn(t, addr)

	want := bytes.Repeat([]byte("put-value:"), 8)
	junk := bytes.Repeat([]byte{0xee}, len(want))
	reqs := []Request{{Verb: VerbPut, Src: 1, Dst: k, Value: want}}
	streamed := 0
	for i := 0; i < scans; i++ {
		req := Request{Verb: VerbScan, Src: 0, Dst: int64(i % n), Limit: 4, Value: junk}
		reqs = append(reqs, req)
		streamed += headerLen + len(req.Encode())
	}
	if streamed <= 4096 {
		t.Fatalf("the scans fill %d bytes, not more than a read buffer", streamed)
	}
	reqs = append(reqs, Request{Verb: VerbGet, Src: 2, Dst: k})
	pipeline(nc, reqs)

	if put := readAnswer(t, br, 1); put.Code != CodeOK {
		t.Fatalf("put: %v", put.Err())
	}
	for i := 0; i < scans; i++ {
		if scan := readAnswer(t, br, uint64(2+i)); scan.Code != CodeOK {
			t.Fatalf("scan %d: %v", i, scan.Err())
		}
	}
	get := readAnswer(t, br, uint64(len(reqs)))
	if get.Code != CodeOK || !get.Found || !bytes.Equal(get.Value, want) {
		t.Fatalf("get after the burst = (%q, found %v, %v), want %q", get.Value, get.Found, get.Err(), want)
	}
	if v, _, _, err := nw.Get(3, k); err != nil || !bytes.Equal(v, want) {
		t.Fatalf("the graph holds %q (%v), want %q", v, err, want)
	}
}

// TestShortAnswerAfterLongOne sends a long scan answer and then a short
// error answer on one connection, first one round trip at a time (each
// answer written from the start of the reused buffer) and then pipelined
// (both gathered into it before one write). Every answer must decode — the
// decoder refuses trailing bytes — and carry exactly its own fields.
func TestShortAnswerAfterLongOne(t *testing.T) {
	const n = 64
	nw, err := lsasg.New(n, lsasg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for key := 0; key < n; key++ {
		if _, _, err := nw.Put((key+1)%n, key, bytes.Repeat([]byte{byte(key)}, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Delete(0, 9); err != nil {
		t.Fatal(err)
	}
	_, addr := listen(t, nw)
	nc, br := rawConn(t, addr)

	long := Request{Verb: VerbScan, Src: 0, Dst: 0, Limit: n}
	short := Request{Verb: VerbRoute, Src: 1, Dst: 9} // 9 was deleted
	checkLong := func(seq uint64) {
		t.Helper()
		scan := readAnswer(t, br, seq)
		if scan.Code != CodeOK || len(scan.Entries) != n-1 {
			t.Fatalf("scan: %d entries (%v), want %d", len(scan.Entries), scan.Err(), n-1)
		}
		for _, e := range scan.Entries {
			if !bytes.Equal(e.Value, bytes.Repeat([]byte{byte(e.Key)}, 48)) {
				t.Fatalf("scan entry %d holds %v", e.Key, e.Value)
			}
		}
	}
	checkShort := func(seq uint64) {
		t.Helper()
		miss := readAnswer(t, br, seq)
		want := Response{Verb: VerbRoute, Seq: seq, Code: CodeUnknownKey, Msg: miss.Msg}
		if miss.Msg == "" || !reflect.DeepEqual(miss, want) {
			t.Fatalf("short answer after a long one = %+v, want only an unknown-key error", miss)
		}
	}
	bw := bufio.NewWriter(nc)
	send := func(seq uint64, req Request) {
		t.Helper()
		req.Seq = seq
		if err := WriteFrame(bw, req.Encode()); err != nil {
			t.Fatal(err)
		}
	}

	send(1, long)
	bw.Flush()
	checkLong(1)
	send(2, short)
	bw.Flush()
	checkShort(2)

	send(3, long)
	send(4, short)
	bw.Flush()
	checkLong(3)
	checkShort(4)
}
