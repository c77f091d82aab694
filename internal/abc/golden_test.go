package abc

import (
	"encoding/hex"
	"testing"
)

// TestWireGolden pins the byte layout of a two-entry agreement value: a
// reordered or re-typed SignedProposal field changes wire.Format and must
// fail here.
func TestWireGolden(t *testing.T) {
	got := hex.EncodeToString(ListValue(
		SignedProposal{Party: 0, Round: 4, Batch: [][]byte{[]byte("req")}, Sig: []byte("s0")},
		SignedProposal{Party: 2, Round: 4, Refs: []byte{0xef}, Ckpt: []byte{0xc0}, Sig: []byte("s2")},
	))
	if got != "02"+"0008"+"0103726571"+"00"+"00"+"027330"+"0408"+"00"+"01ef"+"01c0"+"027332" {
		t.Errorf("proposal list encodes as %s", got)
	}
}
