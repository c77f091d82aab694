package aba

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/coin"
	"sintra/internal/dleq"
	"sintra/internal/group"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of the agreement's bodies: a
// reordered or re-typed field changes wire.Format and must fail here.
func TestWireGolden(t *testing.T) {
	g := group.P256()
	share := coin.Share{Party: 1, ID: 2, Value: g.Generator(),
		Proof: &dleq.Proof{C: g.NewScalar(3), Z: g.NewScalar(4)}}
	for _, c := range []struct {
		v   any
		hex string
	}{
		{boolRoundBody{Round: 3, Value: true}, "0601"},
		{coinBody{Round: 2, Shares: []coin.Share{share}}, "0401" + "0204" +
			// Value: the generator, compressed
			"01" + "2204" + "03" + "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296" +
			// Proof: C = 3, Z = 4
			"01" + "012104" + strings.Repeat("00", 31) + "03" + "012104" + strings.Repeat("00", 31) + "04"},
		{decidedBody{Value: true}, "01"},
	} {
		if got := hex.EncodeToString(wire.MustMarshalBody(c.v)); got != c.hex {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.hex)
		}
	}
}
