package core

import (
	"encoding/hex"
	mrand "math/rand"
	"strings"
	"testing"

	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of the ordered request envelope, of
// the response, and of the proof a client hands out as Answer.Signature: a
// reordered or re-typed field changes wire.Format and must fail here. An
// answer share is its value alone: a 4-byte length and x_i, 68 B at the
// test modulus, with no proof after it.
func TestWireGolden(t *testing.T) {
	// The share of party 3 under a dealing from a seeded source.
	p, q, _ := thresig.TestSafePrimes256()
	scheme, keys, err := thresig.NewRSAScheme("golden", p, q, 4, 2, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	share, err := scheme.SignShare(keys[3], []byte("root"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const x = "6ccdf7a9bfd4af89cfca42714b0122b81cf06b79f41772bac04b5d71e19a92680fc8e6dcaac67246139f336dca8587447c5a49ec299ea2be1f4a74af21494894"
	for _, c := range []struct {
		v   any
		hex string
	}{
		{envelope{ReqID: [16]byte{0x01}, Client: 5, Body: []byte("op")}, "01" + strings.Repeat("00", 15) + "0a" + "026f70"},
		{responseBody{ReqID: [16]byte{0x01}, Seq: 9, Result: []byte("ok"),
			Share: thresig.Share{Party: 3, Data: []byte{0xaa}}, Index: 1, Count: 3, Branch: [][32]byte{{0xbb}}},
			"01" + strings.Repeat("00", 15) + "12" + "026f6b" + "0601aa" + "02" + "06" + "01" + "bb" + strings.Repeat("00", 31)},
		{responseBody{ReqID: [16]byte{0x01}, Seq: 9, Result: []byte("ok"), Share: share, Index: 1, Count: 3, Branch: [][32]byte{{0xbb}}},
			"01" + strings.Repeat("00", 15) + "12" + "026f6b" + "06" + "44" + "00000040" + x + "02" + "06" + "01" + "bb" + strings.Repeat("00", 31)},
		{answerProof{Sig: []byte{0xcc}, Index: 0, Count: 1}, "01cc" + "00" + "02" + "00"},
	} {
		if got := hex.EncodeToString(wire.MustMarshalBody(c.v)); got != c.hex {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.hex)
		}
	}
}
