package threnc

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"testing"
	"testing/quick"

	"sintra/internal/adversary"
	"sintra/internal/group"
)

func dealTest(t testing.TB, st *adversary.Structure) (*Params, []*SecretKey) {
	t.Helper()
	p, keys, err := Deal(group.TestDefault(), st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, keys
}

func decryptWith(t testing.TB, p *Params, keys []*SecretKey, ct *Ciphertext, parties []int) ([]byte, error) {
	t.Helper()
	c, err := NewCombiner(p, ct)
	if err != nil {
		return nil, err
	}
	for _, i := range parties {
		shares, err := p.DecryptShares(keys[i], ct, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			if err := c.Add(sh); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Decrypt()
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	msg := []byte("a confidential notary request")
	ct, err := p.Encrypt(msg, []byte("label-1"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyCiphertext(ct); err != nil {
		t.Fatal(err)
	}
	got, err := decryptWith(t, p, keys, ct, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
	// A different qualified subset produces the same plaintext.
	got2, err := decryptWith(t, p, keys, ct, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("subset disagreement")
	}
}

func TestDecryptBelowThresholdFails(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	ct, _ := p.Encrypt([]byte("m"), nil, rand.Reader)
	if _, err := decryptWith(t, p, keys, ct, []int{1}); err == nil {
		t.Fatal("single share decrypted a 2-of-4 ciphertext")
	}
}

func TestCiphertextIntegrity(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, _ := dealTest(t, st)
	ct, _ := p.Encrypt([]byte("m"), []byte("L"), rand.Reader)

	// Mauled payload must be rejected (CCA2: proof binds payload).
	bad := *ct
	bad.Payload = append([]byte(nil), ct.Payload...)
	bad.Payload[0] ^= 1
	if err := p.VerifyCiphertext(&bad); err == nil {
		t.Fatal("mauled payload accepted")
	}
	// Changed label must be rejected.
	bad = *ct
	bad.Label = []byte("other")
	if err := p.VerifyCiphertext(&bad); err == nil {
		t.Fatal("relabelled ciphertext accepted")
	}
	// Replaced U must be rejected.
	bad = *ct
	bad.U = p.Group().Mul(ct.U, p.Group().Generator())
	if err := p.VerifyCiphertext(&bad); err == nil {
		t.Fatal("modified U accepted")
	}
	// Nil and non-group values rejected.
	if err := p.VerifyCiphertext(nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	bad = *ct
	bad.Ubar = nil
	if err := p.VerifyCiphertext(&bad); err == nil {
		t.Fatal("nil Ubar accepted")
	}
}

func TestDecryptSharesRejectInvalidCiphertext(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	ct, _ := p.Encrypt([]byte("m"), nil, rand.Reader)
	bad := *ct
	bad.Payload = append([]byte(nil), ct.Payload...)
	bad.Payload[0] ^= 1
	if _, err := p.DecryptShares(keys[0], &bad, rand.Reader); err == nil {
		t.Fatal("shares produced for invalid ciphertext")
	}
	if _, err := NewCombiner(p, &bad); err == nil {
		t.Fatal("combiner accepted invalid ciphertext")
	}
}

// TestShareForgeryRejected: a decryption share is bound to its
// ciphertext; the share mechanics themselves are tested in
// internal/sharing.
func TestShareForgeryRejected(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	ct, _ := p.Encrypt([]byte("m"), nil, rand.Reader)
	ct2, _ := p.Encrypt([]byte("m2"), nil, rand.Reader)
	shares, err := p.DecryptShares(keys[0], ct, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyShare(ct, shares[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyShare(ct2, shares[0]); err == nil {
		t.Fatal("share replayed across ciphertexts")
	}
	c, err := NewCombiner(p, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.AddFrom(0, shares) {
		t.Fatal("combiner for another ciphertext took the shares")
	}
}

// TestCombinerShares: the shares a combiner makes for its verified
// ciphertext pass VerifyShare, and two parties' decrypt it.
func TestCombinerShares(t *testing.T) {
	p, keys := dealTest(t, adversary.MustThreshold(4, 1))
	msg := []byte("verified once")
	ct, err := p.Encrypt(msg, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCombiner(p, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		shares, err := c.Shares(keys[i], rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			if err := p.VerifyShare(ct, sh); err != nil {
				t.Fatalf("party %d: own share rejected: %v", i, err)
			}
		}
		if c.AddFrom(i, shares) {
			t.Fatalf("party %d: own shares rejected", i)
		}
	}
	if got, err := c.Decrypt(); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q (%v), want %q", got, err, msg)
	}
}

func TestGeneralStructureDecryption(t *testing.T) {
	st := adversary.Example2()
	p, keys := dealTest(t, st)
	msg := []byte("multi-site secret")
	ct, _ := p.Encrypt(msg, []byte("dir"), rand.Reader)
	// Survivors of site-0 + OS-0 corruption can decrypt.
	var corrupted adversary.Set
	for i := 0; i < 4; i++ {
		corrupted = corrupted.Add(adversary.Example2Party(0, i))
		corrupted = corrupted.Add(adversary.Example2Party(i, 0))
	}
	got, err := decryptWith(t, p, keys, ct, corrupted.Complement(16).Members())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext")
	}
	// The corrupted seven cannot.
	if _, err := decryptWith(t, p, keys, ct, corrupted.Members()); err == nil {
		t.Fatal("corruptible coalition decrypted")
	}
}

func TestLabelIsAuthenticatedButPublic(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	ct, _ := p.Encrypt([]byte("m"), []byte("instance-42"), rand.Reader)
	if !bytes.Equal(ct.Label, []byte("instance-42")) {
		t.Fatal("label not carried")
	}
	if _, err := decryptWith(t, p, keys, ct, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsGobRoundTrip(t *testing.T) {
	st := adversary.Example1()
	p, keys := dealTest(t, st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	var back Params
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := back.Init(); err != nil {
		t.Fatal(err)
	}
	msg := []byte("round trip")
	ct, err := back.Encrypt(msg, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decryptWith(t, &back, keys, ct, []int{0, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext after gob round trip")
	}
}

func TestCiphertextsAreRandomized(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, _ := dealTest(t, st)
	ct1, _ := p.Encrypt([]byte("same"), nil, rand.Reader)
	ct2, _ := p.Encrypt([]byte("same"), nil, rand.Reader)
	if ct1.U.Equal(ct2.U) || bytes.Equal(ct1.Payload, ct2.Payload) {
		t.Fatal("encryption is deterministic")
	}
}

func TestInitValidation(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, _ := dealTest(t, st)
	bad := &Params{GroupName: "nope", Structure: st, PubKey: p.PubKey, VerifyKeys: p.VerifyKeys}
	if err := bad.Init(); err == nil {
		t.Fatal("unknown group accepted")
	}
	bad = &Params{GroupName: p.GroupName, Structure: st, PubKey: p.PubKey, VerifyKeys: p.VerifyKeys[:1]}
	if err := bad.Init(); err == nil {
		t.Fatal("key count mismatch accepted")
	}
}

func TestEmptyMessage(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	ct, err := p.Encrypt(nil, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decryptWith(t, p, keys, ct, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("expected empty plaintext")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	p, _ := dealTest(b, adversary.MustThreshold(4, 1))
	msg := bytes.Repeat([]byte{0x42}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encrypt(msg, nil, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptShare(b *testing.B) {
	p, keys := dealTest(b, adversary.MustThreshold(4, 1))
	ct, _ := p.Encrypt([]byte("bench"), nil, rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecryptShares(keys[0], ct, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineDecrypt(b *testing.B) {
	p, keys := dealTest(b, adversary.MustThreshold(4, 1))
	msg := []byte("bench")
	ct, _ := p.Encrypt(msg, nil, rand.Reader)
	var shares []Share
	for _, i := range []int{0, 1} {
		sh, _ := p.DecryptShares(keys[i], ct, rand.Reader)
		shares = append(shares, sh...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCombiner(p, ct)
		if err != nil {
			b.Fatal(err)
		}
		for _, sh := range shares {
			if err := c.Add(sh); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Decrypt(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuickEncryptDecryptAnyMessage(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	f := func(msg, label []byte) bool {
		ct, err := p.Encrypt(msg, label, rand.Reader)
		if err != nil || p.VerifyCiphertext(ct) != nil {
			return false
		}
		got, err := decryptWith(t, p, keys, ct, []int{1, 3})
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCiphertextMauling(t *testing.T) {
	// Property: flipping any payload byte breaks the consistency proof.
	st := adversary.MustThreshold(4, 1)
	p, _ := dealTest(t, st)
	ct, err := p.Encrypt([]byte("a fixed message to maul"), []byte("L"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint16, b byte) bool {
		bad := *ct
		bad.Payload = append([]byte(nil), ct.Payload...)
		i := int(idx) % len(bad.Payload)
		if bad.Payload[i] == b {
			b ^= 0xFF
		}
		bad.Payload[i] = b
		return p.VerifyCiphertext(&bad) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
