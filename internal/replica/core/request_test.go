package core

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/sig"
)

// TestRequestWireBytes pins the request edge byte for byte: RequestOn sends
// the read-tagged request form both backends decode, and a leased response
// comes back with its leased bit.
func TestRequestWireBytes(t *testing.T) {
	net := netsim.NewNetwork()
	l, err := net.Listen("replica")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resp := sig.ServerResponse{RequestID: "r1", Body: []byte(`{"found":true,"value":"v"}`), ServerIndex: 2, Signature: []byte{1, 2, 3, 4}}
	leasedReply := encodeMsg(Msg{Type: MsgResponse, RequestID: "r1", Response: &resp, Leased: true})
	if want := `{"type":"response","requestId":"r1","response":{"requestId":"r1","body":"eyJmb3VuZCI6dHJ1ZSwidmFsdWUiOiJ2In0=","serverIndex":2,"signature":"AQIDBA=="},"leased":true}`; string(leasedReply) != want {
		t.Fatalf("leased response:\n got %s\nwant %s", leasedReply, want)
	}
	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		raw, err := c.Recv()
		if err != nil {
			return
		}
		got <- append([]byte(nil), raw...)
		// Unrelated traffic first: the requester must skip it.
		_ = c.Send([]byte("not json"))
		_ = c.Send(encodeMsg(Msg{Type: MsgResponse, RequestID: "other", Response: &resp}))
		_ = c.Send(leasedReply)
	}()
	r, leased, err := Request(net, "client", "replica", "r1", []byte(`{"op":"get","key":"k"}`), true, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"type":"request","requestId":"r1","body":"eyJvcCI6ImdldCIsImtleSI6ImsifQ==","read":true}`; string(<-got) != want {
		t.Errorf("request bytes differ from the pinned form; want %s", want)
	}
	if !leased || r.RequestID != "r1" || r.ServerIndex != 2 {
		t.Fatalf("response = %+v leased=%v", r, leased)
	}
}

// TestRequestErrors: a dial to nobody fails, and a silent replica times out
// with netsim.ErrTimeout.
func TestRequestErrors(t *testing.T) {
	net := netsim.NewNetwork()
	if _, _, err := Request(net, "client", "nobody", "r1", nil, false, time.Second); !errors.Is(err, netsim.ErrRefused) {
		t.Fatalf("dial to nobody: %v, want ErrRefused", err)
	}
	l, err := net.Listen("silent")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _, _ = l.Accept() }()
	if _, _, err := Request(net, "client", "silent", "r1", nil, false, 20*time.Millisecond); !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("silent replica: %v, want ErrTimeout", err)
	}
}

// TestSignerAnswer: one signed, verifiable, unleased response reaches every
// parked connection.
func TestSignerAnswer(t *testing.T) {
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork()
	l, err := net.Listen("replica")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var clients, served []*netsim.Conn
	for i := 0; i < 2; i++ {
		accepted := make(chan *netsim.Conn, 1)
		go func() {
			s, _ := l.Accept()
			accepted <- s
		}()
		c, err := net.Dial("client", "replica")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients, served = append(clients, c), append(served, <-accepted)
	}
	Signer{Keys: keys, Index: 3}.Answer(served, "r9", []byte("42"))
	for i, c := range clients {
		raw, err := c.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		var m Msg
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if m.Type != MsgResponse || m.RequestID != "r9" || m.Leased || m.Response == nil {
			t.Fatalf("client %d got %s", i, raw)
		}
		if err := sig.VerifyServerResponse(keys.Public(), *m.Response); err != nil || m.Response.ServerIndex != 3 || string(m.Response.Body) != "42" {
			t.Fatalf("client %d: response %+v, verify %v", i, *m.Response, err)
		}
	}
}

// TestDecoderReusesNothingVisible: pooled decoding starts every message
// from zero, so no field of one payload shows up in the next, even with
// many goroutines decoding at once.
func TestDecoderReusesNothingVisible(t *testing.T) {
	var d Decoder[Msg]
	full := encodeMsg(Msg{Type: MsgRequest, RequestID: "full", Body: []byte("b"), Read: true})
	bare := encodeMsg(Msg{Type: MsgResponse, RequestID: "bare"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, err := d.Decode(full)
				if err != nil || m.RequestID != "full" || string(m.Body) != "b" || !m.Read {
					t.Errorf("full decoded as %+v, %v", m, err)
					return
				}
				m, err = d.Decode(bare)
				if err != nil || m.RequestID != "bare" || m.Body != nil || m.Read {
					t.Errorf("bare decoded as %+v, %v", m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := d.Decode([]byte("not json")); err == nil {
		t.Fatal("malformed payload decoded without error")
	}
}
