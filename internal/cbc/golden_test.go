package cbc

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of the broadcast's certificate and
// share bodies: a reordered or re-typed field changes wire.Format and must
// fail here.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		v   any
		hex string
	}{
		{certBody{Digest: [32]byte{0xd1, 0xd2}, Cert: []byte("cert")}, "d1d2" + strings.Repeat("00", 30) + "0463657274"},
		{shareBody{Share: thresig.Share{Party: 2, Data: []byte{0xaa, 0xbb}}}, "0402aabb"},
	} {
		if got := hex.EncodeToString(wire.MustMarshalBody(c.v)); got != c.hex {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.hex)
		}
	}
}
