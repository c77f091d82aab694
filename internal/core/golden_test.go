package core

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of the client request and response:
// a reordered or re-typed field changes wire.Format and must fail here.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		v   any
		hex string
	}{
		{requestBody{ReqID: [16]byte{0x01}, Payload: []byte("op")}, "01" + strings.Repeat("00", 15) + "026f70"},
		{responseBody{ReqID: [16]byte{0x01}, Seq: 9, Result: []byte("ok"),
			Share: thresig.Share{Party: 3, Data: []byte{0xaa}}}, "01" + strings.Repeat("00", 15) + "12" + "026f6b" + "0601aa00"},
	} {
		if got := hex.EncodeToString(wire.MustMarshalBody(c.v)); got != c.hex {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.hex)
		}
	}
}
