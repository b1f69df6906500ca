package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/sig"
)

// Message types of the client-request edge, shared by every backend.
const (
	MsgRequest  = "request"  // requester → replica: please serve
	MsgResponse = "response" // replica → requester: signed response
)

// Msg is the client-request edge of the replica wire format: what a
// requester sends and what a replica answers. Each backend embeds it first
// in its own wire message, so the type tag leads every message and the
// fields below encode exactly where the backends always put them.
type Msg struct {
	Type      string `json:"type"`
	RequestID string `json:"requestId,omitempty"`
	Body      []byte `json:"body,omitempty"`
	// Read tags a request the sender classified as a pure read, making it
	// eligible for a backend's lease-read fast path (smr). The tag alone
	// never skips ordering: the replica also asks the hosted service to
	// classify the body, so a mis-tagged write still sequences. pb ignores
	// it.
	Read     bool                `json:"read,omitempty"`
	Response *sig.ServerResponse `json:"response,omitempty"`
	// Leased marks a response served locally under a valid read lease.
	// Clients use it to decide what a single signature is worth: a leased
	// answer is backed by the lease machinery, while an unleased answer
	// went through ordering on one replica's say-so and should be
	// cross-checked by an f+1 vote.
	Leased bool `json:"leased,omitempty"`
}

// Decoder decodes one backend's wire messages into pooled values, so the
// struct a payload decodes into costs no allocation of its own. That
// offsets the allocation encoding/json makes for every decode that reaches
// a field promoted from an embedded Msg.
type Decoder[T any] struct{ pool sync.Pool }

// Decode unmarshals raw into a zero T.
func (d *Decoder[T]) Decode(raw []byte) (T, error) {
	p, ok := d.pool.Get().(*T)
	if !ok {
		p = new(T)
	}
	err := json.Unmarshal(raw, p)
	m := *p
	var zero T
	*p = zero // the pool keeps no reference to what m holds
	d.pool.Put(p)
	return m, err
}

// msgDecoder decodes the responses a requester reads.
var msgDecoder Decoder[Msg]

func encodeMsg(m Msg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// Msg contains only marshal-safe fields; this cannot happen.
		panic(fmt.Sprintf("core: marshal request-edge message: %v", err))
	}
	return b
}

// Request dials the replica at addr from the caller's network identity,
// issues one request and waits for its signed response. It reports whether
// the response was served under a read lease.
func Request(net *netsim.Network, from, addr, requestID string, body []byte, read bool, timeout time.Duration) (sig.ServerResponse, bool, error) {
	conn, err := net.Dial(from, addr)
	if err != nil {
		return sig.ServerResponse{}, false, fmt.Errorf("core: request dial: %w", err)
	}
	defer conn.Close()
	return RequestOn(conn, requestID, body, read, timeout)
}

// RequestOn issues a request on an existing connection and waits for the
// matching signed response, skipping unrelated traffic.
func RequestOn(conn *netsim.Conn, requestID string, body []byte, read bool, timeout time.Duration) (sig.ServerResponse, bool, error) {
	if err := conn.Send(encodeMsg(Msg{Type: MsgRequest, RequestID: requestID, Body: body, Read: read})); err != nil {
		return sig.ServerResponse{}, false, fmt.Errorf("core: request send: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return sig.ServerResponse{}, false, netsim.ErrTimeout
		}
		raw, err := conn.RecvTimeout(remaining)
		if err != nil {
			return sig.ServerResponse{}, false, fmt.Errorf("core: request recv: %w", err)
		}
		m, uerr := msgDecoder.Decode(raw)
		netsim.Release(raw) // decoded: json copied every field out of raw
		if uerr != nil {
			continue
		}
		if m.Type == MsgResponse && m.RequestID == requestID && m.Response != nil {
			return *m.Response, m.Leased, nil
		}
	}
}

// Signer signs one replica's responses: every backend answers a requester
// with the same signed, encoded response message.
type Signer struct {
	Keys  *sig.KeyPair
	Index int
}

// Reply signs payload as this replica's response to requestID and encodes
// it for the wire; leased marks a response served under a read lease.
func (s Signer) Reply(requestID string, payload []byte, leased bool) []byte {
	resp := sig.SignServerResponse(s.Keys, requestID, payload, s.Index)
	return encodeMsg(Msg{Type: MsgResponse, RequestID: requestID, Response: &resp, Leased: leased})
}

// Answer sends the unleased response to requestID on every connection in
// conns (Send copies, so one signed encoding serves them all).
func (s Signer) Answer(conns []*netsim.Conn, requestID string, payload []byte) {
	if len(conns) == 0 {
		return
	}
	reply := s.Reply(requestID, payload, false)
	for _, c := range conns {
		_ = c.Send(reply)
	}
}
