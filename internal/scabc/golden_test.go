package scabc

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/dleq"
	"sintra/internal/group"
	"sintra/internal/threnc"
	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of a round's decryption shares: a
// reordered or re-typed field changes wire.Format and must fail here.
func TestWireGolden(t *testing.T) {
	g := group.P256()
	share := threnc.Share{Party: 1, ID: 2, Value: g.Generator(),
		Proof: &dleq.Proof{C: g.NewScalar(3), Z: g.NewScalar(4)}}
	body := sharesBody{Round: 2, Shares: [][]threnc.Share{{share}, nil}}
	want := "04" + "02" + "01" + "0204" +
		// Value: the generator, compressed
		"01" + "2204" + "03" + "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296" +
		// Proof: C = 3, Z = 4
		"01" + "012104" + strings.Repeat("00", 31) + "03" + "012104" + strings.Repeat("00", 31) + "04" +
		// the second ciphertext's list, skipped as invalid
		"00"
	if got := hex.EncodeToString(wire.MustMarshalBody(body)); got != want {
		t.Errorf("sharesBody encodes as %s, want %s", got, want)
	}
}
