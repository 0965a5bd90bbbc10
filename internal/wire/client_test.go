package wire

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClientSendsAWrittenFrameOnce: a connection that drops after a frame
// was written may have had it served, so the client returns the fault
// instead of sending the frame again — a second Put would bump the version
// and answer existed=true. The fake server reads one frame per connection
// and hangs up without answering.
func TestClientSendsAWrittenFrameOnce(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var puts atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				body, err := ReadFrame(bufio.NewReader(nc))
				if err != nil {
					return
				}
				if req, err := DecodeRequest(body); err == nil && req.Verb == VerbPut {
					puts.Add(1)
				}
			}()
		}
	}()
	cl, err := DialClient(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Put(0, 5, []byte("v"))
	cl.Close()
	lis.Close()
	<-done
	if err == nil {
		t.Error("Put answered by a hang-up returned no error")
	}
	if got := puts.Load(); got != 1 {
		t.Errorf("the server received the Put %d times, want 1", got)
	}
}
