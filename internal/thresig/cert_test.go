package thresig

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"sync"
	"testing"

	"sintra/internal/adversary"
)

func newTestCert(t testing.TB, st *adversary.Structure, rule Rule) (*CertScheme, []*SecretKey) {
	t.Helper()
	s, keys, err := NewCertScheme("test", st, rule, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s, keys
}

func TestCertSignCombineVerify(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	msg := []byte("hello cert")
	shares := signAll(t, s, keys, msg, []int{0, 1, 3})
	for _, sh := range shares {
		if err := s.VerifyShare(msg, sh); err != nil {
			t.Fatal(err)
		}
	}
	sig, err := s.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify([]byte("other"), sig); err == nil {
		t.Fatal("certificate verified for wrong message")
	}
}

func TestCertRules(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	cases := []struct {
		rule Rule
		ok   adversary.Set
		bad  adversary.Set
	}{
		{RuleQuorum, adversary.SetOf(0, 1, 2), adversary.SetOf(0, 1)},
		{RuleCore, adversary.SetOf(0, 1, 2), adversary.SetOf(0, 1)},
		{RuleHasHonest, adversary.SetOf(0, 1), adversary.SetOf(3)},
		{RuleQualified, adversary.SetOf(0, 2), adversary.SetOf(2)},
	}
	for _, c := range cases {
		s, keys := newTestCert(t, st, c.rule)
		msg := []byte("m")
		if !s.Sufficient(c.ok) || s.Sufficient(c.bad) {
			t.Fatalf("rule %s: Sufficient broken", c.rule)
		}
		sig, err := s.Combine(msg, signAll(t, s, keys, msg, c.ok.Members()))
		if err != nil {
			t.Fatalf("rule %s: %v", c.rule, err)
		}
		if err := s.Verify(msg, sig); err != nil {
			t.Fatalf("rule %s: %v", c.rule, err)
		}
		if _, err := s.Combine(msg, signAll(t, s, keys, msg, c.bad.Members())); err == nil {
			t.Fatalf("rule %s: combined below rule", c.rule)
		}
	}
}

func TestCertWithExample2(t *testing.T) {
	st := adversary.Example2()
	s, keys := newTestCert(t, st, RuleQuorum)
	msg := []byte("general adversary certificate")
	// Quorum = complement of one maximal adversary set (site 1 + OS 2).
	var corrupted adversary.Set
	for i := 0; i < 4; i++ {
		corrupted = corrupted.Add(adversary.Example2Party(1, i))
		corrupted = corrupted.Add(adversary.Example2Party(i, 2))
	}
	honest := corrupted.Complement(16)
	sig, err := s.Combine(msg, signAll(t, s, keys, msg, honest.Members()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	// The corrupted seven alone are not a quorum.
	if _, err := s.Combine(msg, signAll(t, s, keys, msg, corrupted.Members())); err == nil {
		t.Fatal("corruptible set formed a quorum certificate")
	}
}

func TestCertVerifyRejectsForgery(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	msg := []byte("m")
	sig, err := s.Combine(msg, signAll(t, s, keys, msg, []int{0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip.
	bad := append([]byte(nil), sig...)
	bad[10] ^= 1
	if err := s.Verify(msg, bad); err == nil {
		t.Fatal("mangled certificate verified")
	}
	// Truncated.
	if err := s.Verify(msg, sig[:len(sig)-1]); err == nil {
		t.Fatal("truncated certificate verified")
	}
	if err := s.Verify(msg, nil); err == nil {
		t.Fatal("nil certificate verified")
	}
	// The signer bitmap (one byte at n=4) must name exactly the parties
	// whose signatures follow, in party order, and only parties that exist.
	if len(sig) != 1+3*64 || sig[0] != 0b0111 {
		t.Fatalf("certificate of %d B with signers %08b, want 193 B naming {0,1,2}", len(sig), sig[0])
	}
	for name, forged := range map[string][]byte{
		"a fourth signer without a signature": append([]byte{0b1111}, sig[1:]...),
		"a signer beyond n":                   append(append([]byte{0b10111}, sig[1:]...), sig[1:1+64]...),
		"a signer left out":                   append([]byte{0b0011}, sig[1:1+2*64]...),
		"signatures out of party order":       append(append([]byte{0b0111}, sig[1+64:1+3*64]...), sig[1:1+64]...),
		"the same signature twice":            append(append([]byte{0b0111}, sig[1:1+64]...), sig[1:1+2*64]...),
	} {
		if err := s.Verify(msg, forged); err == nil {
			t.Fatalf("certificate with %s verified", name)
		}
	}
}

func TestCertShareForgery(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	msg := []byte("m")
	good := signAll(t, s, keys, msg, []int{0})[0]
	bad := good
	bad.Party = 1
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("share verified under wrong party")
	}
	bad = good
	bad.Data = good.Data[:32]
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("truncated share verified")
	}
}

func TestCertDomainSeparation(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s1, keys, err := NewCertScheme("one", st, RuleQuorum, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &CertScheme{InstanceTag: "two", Structure: st, OpenRule: RuleQuorum, PubKeys: s1.PubKeys}
	msg := []byte("m")
	sig, err := s1.Combine(msg, signAll(t, s1, keys, msg, []int{0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Verify(msg, sig); err == nil {
		t.Fatal("certificate transferred across tags")
	}
}

func TestCertCombineSkipsInvalidShares(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	msg := []byte("m")
	shares := signAll(t, s, keys, msg, []int{0, 1, 2})
	// Poison one share; combine must still succeed using the others plus
	// a fourth honest share.
	shares[1].Data = bytes.Repeat([]byte{0}, 64)
	shares = append(shares, signAll(t, s, keys, msg, []int{3})...)
	sig, err := s.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
}

// TestCertKeptKey: SignShare derives a key's Ed25519 key once and keeps
// it, but still refuses a key that does not match the scheme, follows a
// replaced seed, is safe to call concurrently on a fresh key, and gob
// ships the seed only.
func TestCertKeptKey(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	other, otherKeys := newTestCert(t, st, RuleQuorum)
	msg := []byte("m")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh, err := s.SignShare(keys[0], msg, nil)
			if err != nil || s.VerifyShare(msg, sh) != nil {
				t.Errorf("concurrent sign: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := other.SignShare(keys[0], msg, nil); err != ErrWrongKey {
		t.Fatalf("a kept key signed for another scheme: %v", err)
	}
	for _, sk := range []*SecretKey{nil, {Party: 0}, {Party: 0, Ed25519Seed: []byte{1}},
		{Party: 4, Ed25519Seed: keys[0].Ed25519Seed}, {Party: 1, Ed25519Seed: keys[0].Ed25519Seed}} {
		if _, err := s.SignShare(sk, msg, nil); err != ErrWrongKey {
			t.Fatalf("key %+v: %v, want ErrWrongKey", sk, err)
		}
	}
	keys[0].Ed25519Seed = otherKeys[0].Ed25519Seed
	if _, err := s.SignShare(keys[0], msg, nil); err != ErrWrongKey {
		t.Fatalf("a replaced seed signed with the kept key: %v", err)
	}
	sh, err := other.SignShare(keys[0], msg, nil)
	if err != nil || other.VerifyShare(msg, sh) != nil {
		t.Fatalf("the replaced seed does not sign: %v", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(keys[1]); err != nil {
		t.Fatal(err)
	}
	var back SecretKey
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if sh, err := s.SignShare(&back, msg, nil); err != nil || s.VerifyShare(msg, sh) != nil {
		t.Fatalf("a decoded key does not sign: %v", err)
	}
}

func TestCertUnknownRule(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	if _, _, err := NewCertScheme("t", st, Rule("bogus"), rand.Reader); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestCertGobRoundTrip(t *testing.T) {
	st := adversary.Example1()
	s, keys := newTestCert(t, st, RuleQuorum)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var back CertScheme
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	msg := []byte("round trip")
	sig, err := back.Combine(msg, signAll(t, &back, keys, msg, []int{4, 5, 6, 7, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCertSignShare(b *testing.B) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(b, st, RuleQuorum)
	msg := []byte("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SignShare(keys[0], msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertVerify(b *testing.B) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(b, st, RuleQuorum)
	msg := []byte("bench")
	sig, err := s.Combine(msg, signAll(b, s, keys, msg, []int{0, 1, 2}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCertOwnShareTakenUnchecked: a Combiner given the own share, and
// VerifyOwn, take party 0's own entry without a check, and only when it
// is byte for byte the share party 0 made, on the message being combined
// or verified. In view, party
// 0's place holds party 1's key, so any check of party 0's signature
// there fails; a certificate on another message that carries party 0's
// share bytes is checked in full, under the right keys, and refused.
func TestCertOwnShareTakenUnchecked(t *testing.T) {
	s, keys := newTestCert(t, adversary.MustThreshold(4, 1), RuleQuorum)
	msg, other := []byte("the statement party 0 signed"), []byte("another statement")
	shares := signAll(t, s, keys, msg, []int{0, 1, 2})
	own := Own{Msg: msg, Share: shares[0]}
	view := &CertScheme{InstanceTag: s.InstanceTag, Structure: s.Structure, OpenRule: s.OpenRule,
		PubKeys: append([][]byte{s.PubKeys[1]}, s.PubKeys[1:]...)}

	cert, bad, err := new(Combiner).Combine(view, msg, shares, own)
	if err != nil || bad != nil {
		t.Fatalf("Combine with the own share: culprits %v, %v", bad, err)
	}
	if err := VerifyOwn(view, msg, cert, own); err != nil {
		t.Fatalf("VerifyOwn: %v", err)
	}
	if view.Verify(msg, cert) == nil || VerifyOwn(view, msg, cert, Own{}) == nil {
		t.Fatal("without the own share, party 0's entry was not checked")
	}
	if err := s.Verify(msg, cert); err != nil {
		t.Fatalf("the certificate does not verify under the right keys: %v", err)
	}
	mine := signAll(t, s, keys, other, []int{0})[0]
	for name, o := range map[string]Own{
		"another signature by party 0": {Msg: msg, Share: mine},
		"the same bytes as party 1's":  {Msg: msg, Share: Share{Party: 1, Data: shares[0].Data}},
		"another message":              {Msg: other, Share: shares[0]},
	} {
		if VerifyOwn(view, msg, cert, o) == nil {
			t.Errorf("%s: VerifyOwn took party 0's entry unchecked", name)
		}
		if _, bad, _ := new(Combiner).Combine(view, msg, shares, o); len(bad) != 1 || bad[0] != 0 {
			t.Errorf("%s: Combine culprits %v, want [0]", name, bad)
		}
	}

	// A certificate on another message with party 0's share bytes on msg
	// at its index, and valid signatures of parties 1 and 2.
	onOther := signAll(t, s, keys, other, []int{1, 2})
	forged := append([]byte{0b0111}, shares[0].Data...)
	forged = append(append(forged, onOther[0].Data...), onOther[1].Data...)
	if VerifyOwn(s, other, forged, own) == nil {
		t.Fatal("a certificate on another message with the own share bytes verified")
	}
	if s.Verify(other, forged) == nil {
		t.Fatal("forged certificate verified")
	}
}
