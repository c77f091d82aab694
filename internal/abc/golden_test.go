package abc

import (
	"encoding/hex"
	"strings"
	"testing"

	"sintra/internal/wire"
)

// TestWireGolden pins the byte layout of a PROPOSAL body and of a
// two-entry agreement value, which names proposals by the digest of that
// body: a reordered or re-typed field changes wire.Format and must fail
// here.
func TestWireGolden(t *testing.T) {
	prop := hex.EncodeToString(wire.MustMarshalBody(
		SignedProposal{Party: 2, Round: 4, Batch: [][]byte{[]byte("req")}, Refs: []byte{0xef}, Ckpt: []byte{0xc0}, Sig: []byte("s2")},
	))
	if prop != "04"+"08"+"0103726571"+"01ef"+"01c0"+"027332" {
		t.Errorf("proposal encodes as %s", prop)
	}
	list := hex.EncodeToString(wire.MustMarshalBody(proposalList{Proposals: [][32]byte{{0xaa, 31: 0x01}, {0xbb, 31: 0x02}}}))
	want := "02" + "aa" + strings.Repeat("00", 30) + "01" + "bb" + strings.Repeat("00", 30) + "02"
	if list != want {
		t.Errorf("proposal list encodes as %s", list)
	}
}
