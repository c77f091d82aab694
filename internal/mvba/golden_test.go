package mvba

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of a yes-vote: a reordered or
// re-typed field changes wire.Format and must fail here.
func TestWireGolden(t *testing.T) {
	v := voteBody{Trial: 1, HasCert: true, Digest: [32]byte{0xd1, 0xd2}, Cert: []byte("cert")}
	if got := hex.EncodeToString(wire.MustMarshalBody(v)); got != "0201"+"d1d2"+strings.Repeat("00", 30)+"0463657274" {
		t.Errorf("voteBody encodes as %s", got)
	}
}
