package deal_test

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sintra/internal/coin"
	"sintra/internal/deal"
	"sintra/internal/threnc"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// TestDealingFixture loads a dealing that deal.SaveDir wrote at wire
// format 12 (n = 4, t = 1, the test256 group, the embedded test RSA
// primes), tosses the coin recorded beside it from a qualified set of
// released shares, decrypts the recorded ciphertext, and signs with the
// answer key, whose file still holds the verification base and keys of
// Shoup's share proofs: gob skips them now that shares carry no proof.
// The files under testdata/dealing are never regenerated: they pin the
// gob layout of the dealing and the coin and TDH2 arithmetic across
// refactors.
func TestDealingFixture(t *testing.T) {
	dir := filepath.Join("testdata", "dealing")
	pub, err := deal.LoadPublic(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		CoinName   string `json:"coin_name"`
		CoinValue  string `json:"coin_value"`
		Ciphertext string `json:"ciphertext"`
		Plaintext  string `json:"plaintext"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	party := func(i int) *deal.PartySecret {
		sec, err := deal.LoadParty(dir, i)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}

	// The recorded coin came from parties 0 and 2; toss it from 1 and 3.
	c := coin.NewCombiner(pub.Coin, rec.CoinName)
	for _, i := range []int{1, 3} {
		shares, err := pub.Coin.ReleaseShares(party(i).Coin, rec.CoinName, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if c.AddFrom(i, shares) {
			t.Fatalf("party %d: coin share rejected", i)
		}
	}
	v, err := c.Value()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(v.Bytes()); got != rec.CoinValue {
		t.Fatalf("coin %q = %s, recorded %s", rec.CoinName, got, rec.CoinValue)
	}

	// The recorded ciphertext was opened by parties 1 and 3; open it
	// with 0 and 2.
	body, err := hex.DecodeString(rec.Ciphertext)
	if err != nil {
		t.Fatal(err)
	}
	var ct threnc.Ciphertext
	if err := wire.UnmarshalBody(body, &ct); err != nil {
		t.Fatal(err)
	}
	dc, err := threnc.NewCombiner(pub.Enc, &ct)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		shares, err := pub.Enc.DecryptShares(party(i).Enc, &ct, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if dc.AddFrom(i, shares) {
			t.Fatalf("party %d: decryption share rejected", i)
		}
	}
	plain, err := dc.Decrypt()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, []byte(rec.Plaintext)) {
		t.Fatalf("decrypted %q, recorded %q", plain, rec.Plaintext)
	}

	// Two answer-key shares combine to a signature that verifies.
	stmt := []byte("fixture answer")
	var shares []thresig.Share
	for _, i := range []int{0, 3} {
		sh, err := pub.AnswerRSA.SignShare(party(i).SigAnswer, stmt, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, bad, err := thresig.Combine(pub.AnswerSig(), stmt, shares)
	if err != nil || bad != nil {
		t.Fatalf("answer shares: culprits %v, %v", bad, err)
	}
	if err := pub.AnswerSig().Verify(stmt, sig); err != nil {
		t.Fatal(err)
	}
}
