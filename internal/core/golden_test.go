package core

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of the ordered request envelope, of
// the response, and of the proof a client hands out as Answer.Signature: a
// reordered or re-typed field changes wire.Format and must fail here.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		v   any
		hex string
	}{
		{envelope{ReqID: [16]byte{0x01}, Client: 5, Body: []byte("op")}, "01" + strings.Repeat("00", 15) + "0a" + "026f70"},
		{responseBody{ReqID: [16]byte{0x01}, Seq: 9, Result: []byte("ok"),
			Share: thresig.Share{Party: 3, Data: []byte{0xaa}}, Index: 1, Count: 3, Branch: [][32]byte{{0xbb}}},
			"01" + strings.Repeat("00", 15) + "12" + "026f6b" + "0601aa" + "02" + "06" + "01" + "bb" + strings.Repeat("00", 31)},
		{answerProof{Sig: []byte{0xcc}, Index: 0, Count: 1}, "01cc" + "00" + "02" + "00"},
	} {
		if got := hex.EncodeToString(wire.MustMarshalBody(c.v)); got != c.hex {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.hex)
		}
	}
}
