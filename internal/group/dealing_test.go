package group_test

import (
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/deal"
	"sintra/internal/group"
)

// TestInProcessDealingRegistersTables: a dealing made in this process
// (deal.New, as every simulator deployment and test cluster makes one)
// registers fixed-base tables for the coin's and TDH2's verification keys
// and the TDH2 public key, as a dealing loaded from disk does, so share
// checks on the Z_p* groups exponentiate those keys through a table.
func TestInProcessDealingRegistersTables(t *testing.T) {
	g, err := group.ByName(group.NameTest256)
	if err != nil {
		t.Fatal(err)
	}
	pub, _, err := deal.New(deal.Options{Group: g, Structure: adversary.MustThreshold(4, 1), RSAPrimes: deal.TestPrimes256()})
	if err != nil {
		t.Fatal(err)
	}
	bases := append(append([]*group.Point{pub.Enc.PubKey}, pub.Coin.VerifyKeys...), pub.Enc.VerifyKeys...)
	for i, b := range bases {
		if !group.HasTable(g, b) {
			t.Errorf("base %d of %d has no fixed-base table", i, len(bases))
		}
	}
}
