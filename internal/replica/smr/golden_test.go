package smr

import (
	"testing"

	"fortress/internal/replica/core"
	"fortress/internal/sig"
)

// TestWireGolden pins the smr wire encoding byte for byte: the request and
// leased-response forms clients and proxies exchange with replicas, and the
// order and catch-up messages replicas exchange with each other.
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
		{"leased response",
			encode(wireMsg{Msg: core.Msg{Type: core.MsgResponse, RequestID: "r1", Response: &resp, Leased: true}}),
			`{"type":"response","requestId":"r1","response":{"requestId":"r1","body":"eyJmb3VuZCI6dHJ1ZSwidmFsdWUiOiJ2In0=","serverIndex":2,"signature":"AQIDBA=="},"leased":true}`},
		{"order",
			encode(wireMsg{Msg: core.Msg{Type: msgOrder, RequestID: "w5", Body: []byte("inc")}, Seq: 5, From: 1}),
			`{"type":"order","requestId":"w5","body":"aW5j","seq":5,"from":1}`},
		{"forward",
			encode(wireMsg{Msg: core.Msg{Type: msgForward, RequestID: "w5", Body: []byte("inc")}, From: 2}),
			`{"type":"forward","requestId":"w5","body":"aW5j","from":2}`},
		{"catch-up response",
			encode(wireMsg{Msg: core.Msg{Type: msgCatchupResp}, Seq: 9, From: 1, Snapshot: []byte("7"),
				Entries:   []wireLogEntry{{Seq: 8, RequestID: "w8", Body: []byte("inc")}},
				Responses: map[string][]byte{"w2": []byte("2"), "w1": []byte("1")}}),
			`{"type":"catchup-resp","seq":9,"from":1,"snapshot":"Nw==","entries":[{"seq":8,"requestId":"w8","body":"aW5j"}],"responses":{"w1":"MQ==","w2":"Mg=="}}`},
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
