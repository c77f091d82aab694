package deal_test

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sintra/internal/coin"
	"sintra/internal/deal"
	"sintra/internal/edverify"
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

// fixtureCopy decodes the fixture's public.gob, lets edit change it, and
// writes it into a fresh directory that LoadPublic can read.
func fixtureCopy(t *testing.T, edit func(*deal.Public)) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "dealing", "public.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var pub deal.Public
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	edit(&pub)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&pub); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "public.gob"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadPublicRefusesBadSignatureKeys: a copy of the fixture whose
// identity or quorum-certificate key list lacks a key, or holds a key that
// is not 32 bytes or not a curve point, fails to load, naming the list and
// the party. Such a dealing used to load, and every check under the bad
// key then panicked inside crypto/ed25519 or rejected everything.
func TestLoadPublicRefusesBadSignatureKeys(t *testing.T) {
	notPoint := make([]byte, 32)
	notPoint[0] = 2 // y = 2 is no curve point's y
	for _, tc := range []struct {
		name, want string
		edit       func(*deal.Public)
	}{
		{"short identity key", "identity keys: party 2", func(p *deal.Public) {
			p.Identity.PubKeys[2] = p.Identity.PubKeys[2][:31]
		}},
		{"three identity keys", "identity keys: 3 public keys for 4 parties", func(p *deal.Public) {
			p.Identity.PubKeys = p.Identity.PubKeys[:3]
		}},
		{"quorum key not a point", "quorum certificate keys: party 1", func(p *deal.Public) {
			p.QuorumCert.PubKeys[1] = notPoint
		}},
		{"five quorum keys", "quorum certificate keys: 5 public keys for 4 parties", func(p *deal.Public) {
			p.QuorumCert.PubKeys = append(p.QuorumCert.PubKeys, p.QuorumCert.PubKeys[0])
		}},
	} {
		dir := fixtureCopy(t, tc.edit)
		if _, err := deal.LoadPublic(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: LoadPublic: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := deal.LoadPublic(fixtureCopy(t, func(*deal.Public) {})); err != nil {
		t.Fatalf("unedited copy: %v", err)
	}
}

// TestSignatureTablesBuiltOnFirstCheck: loading a dealing builds no
// Ed25519 check table; the first check under a key builds that key's
// table, and later checks under it build none.
func TestSignatureTablesBuiltOnFirstCheck(t *testing.T) {
	dir := filepath.Join("testdata", "dealing")
	before := edverify.Builds()
	pub, err := deal.LoadPublic(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := edverify.Builds() - before; n != 0 {
		t.Fatalf("LoadPublic built %d tables", n)
	}
	sec, err := deal.LoadParty(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("statement")
	sig := sec.Identity.Sign("test", msg)
	sh, err := pub.QuorumCert.SignShare(sec.SigQuorum, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pub.Identity.Verify(1, "test", msg, sig); err != nil {
			t.Fatal(err)
		}
		if err := pub.QuorumCert.VerifyShare(msg, sh); err != nil {
			t.Fatal(err)
		}
	}
	if n := edverify.Builds() - before; n != 2 {
		t.Fatalf("three checks under each of two keys built %d tables, want 2", n)
	}
}
