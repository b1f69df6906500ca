package pb

import (
	"testing"

	"fortress/internal/replica/core"
	"fortress/internal/sig"
)

// TestWireGolden pins the pb wire encoding byte for byte. Update and
// checkpoint messages are journaled verbatim in the WAL, so a reordered or
// renamed field would orphan every store written before the change; the
// request and response forms are what proxies and pb replicas exchange.
func TestWireGolden(t *testing.T) {
	resp := sig.ServerResponse{RequestID: "r1", Body: []byte(`{"found":true,"value":"v"}`), ServerIndex: 2, Signature: []byte{1, 2, 3, 4}}
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"read-tagged request",
			encode(wireMsg{Msg: core.Msg{Type: core.MsgRequest, RequestID: "r1", Body: []byte(`{"op":"get","key":"k"}`), Read: true}}),
			`{"type":"request","requestId":"r1","body":"eyJvcCI6ImdldCIsImtleSI6ImsifQ==","read":true}`},
		{"response",
			encode(wireMsg{Msg: core.Msg{Type: core.MsgResponse, RequestID: "r1", Response: &resp}}),
			`{"type":"response","requestId":"r1","response":{"requestId":"r1","body":"eyJmb3VuZCI6dHJ1ZSwidmFsdWUiOiJ2In0=","serverIndex":2,"signature":"AQIDBA=="}}`},
		{"delta update",
			encode(updateMsg(7, 1, retained{requestID: "w7", respBody: []byte(`{"found":true}`), prefix: 12, suffix: 30, patch: []byte("abc"), baseHash: 0xdeadbeefcafe}, nil)),
			`{"type":"update","requestId":"w7","seq":7,"from":1,"respBody":"eyJmb3VuZCI6dHJ1ZX0=","deltaPrefix":12,"deltaSuffix":30,"delta":"YWJj","baseHash":244837814094590}`},
		{"checkpoint",
			encode(updateMsg(8, 1, retained{requestID: "w8", respErr: "boom", checkpoint: []byte(`{"k":"v"}`)}, map[string][]byte{"w2": []byte("x"), "w1": []byte("error: y")})),
			`{"type":"checkpoint","requestId":"w8","seq":8,"from":1,"respErr":"boom","snapshot":"eyJrIjoidiJ9","responses":{"w1":"ZXJyb3I6IHk=","w2":"eA=="}}`},
		{"ack",
			encode(wireMsg{Msg: core.Msg{Type: msgAck}, Seq: 9, From: 2, Stream: 1}),
			`{"type":"ack","seq":9,"from":2,"stream":1}`},
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
