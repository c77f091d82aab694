package thresig

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"sintra/internal/adversary"
)

func newTestRSA(t testing.TB, n, k int) (*RSAScheme, []*SecretKey) {
	t.Helper()
	p, q, _ := TestSafePrimes256()
	s, keys, err := NewRSAScheme("test", p, q, n, k, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s, keys
}

func signAll(t testing.TB, s Scheme, keys []*SecretKey, msg []byte, parties []int) []Share {
	t.Helper()
	out := make([]Share, 0, len(parties))
	for _, i := range parties {
		sh, err := s.SignShare(keys[i], msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sh)
	}
	return out
}

func TestRSASignCombineVerify(t *testing.T) {
	s, keys := newTestRSA(t, 4, 3)
	msg := []byte("hello sintra")
	shares := signAll(t, s, keys, msg, []int{0, 1, 2})
	for _, sh := range shares {
		if err := s.VerifyShare(msg, sh); err != nil {
			t.Fatalf("share %d rejected: %v", sh.Party, err)
		}
	}
	sig, err := s.Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatalf("combined signature rejected: %v", err)
	}
	if err := s.Verify([]byte("other message"), sig); err == nil {
		t.Fatal("signature verified for wrong message")
	}
}

func TestRSACombineFromDifferentSubsets(t *testing.T) {
	s, keys := newTestRSA(t, 5, 3)
	msg := []byte("subset independence")
	sig1, err := s.Combine(msg, signAll(t, s, keys, msg, []int{0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := s.Combine(msg, signAll(t, s, keys, msg, []int{2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	// RSA signatures are unique: y^e = x̂ has one solution per x̂ in QR.
	if !bytes.Equal(sig1, sig2) {
		t.Fatal("different subsets produced different RSA signatures")
	}
}

func TestRSAInsufficientShares(t *testing.T) {
	s, keys := newTestRSA(t, 4, 3)
	msg := []byte("m")
	if _, err := s.Combine(msg, signAll(t, s, keys, msg, []int{0, 1})); err == nil {
		t.Fatal("combined below threshold")
	}
	// Duplicates of one party do not count twice.
	sh := signAll(t, s, keys, msg, []int{0})[0]
	if _, err := s.Combine(msg, []Share{sh, sh, sh}); err == nil {
		t.Fatal("duplicate shares counted")
	}
	if s.Sufficient(adversary.SetOf(0, 1)) || !s.Sufficient(adversary.SetOf(0, 1, 2)) {
		t.Fatal("Sufficient broken")
	}
}

func TestRSAVerifyShareRejectsForgery(t *testing.T) {
	s, keys := newTestRSA(t, 4, 3)
	msg := []byte("m")
	good := signAll(t, s, keys, msg, []int{1})[0]
	// Wrong message.
	if err := s.VerifyShare([]byte("n"), good); err == nil {
		t.Fatal("share verified for wrong message")
	}
	// Wrong claimed party.
	bad := good
	bad.Party = 2
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("share verified for wrong party")
	}
	// Mangled data.
	bad = good
	bad.Data = append([]byte(nil), good.Data...)
	bad.Data[7] ^= 0xFF
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("mangled share verified")
	}
	bad.Data = []byte{1, 2, 3}
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("truncated share verified")
	}
	bad = good
	bad.Party = 99
	if err := s.VerifyShare(msg, bad); err == nil {
		t.Fatal("out-of-range party verified")
	}
	// A 128 KiB challenge is refused before any exponentiation (which
	// would take about half a second at this modulus).
	bad = hugeChallenge(signAll(t, s, keys, []byte("n"), []int{1})[0])
	start := time.Now()
	if err := s.VerifyShare(msg, bad); !errors.Is(err, ErrInvalidShare) {
		t.Fatalf("128 KiB challenge: %v, want ErrInvalidShare", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("128 KiB challenge took %v to reject, want < 10ms", d)
	}
}

func TestRSAVerifyRejectsGarbage(t *testing.T) {
	s, _ := newTestRSA(t, 4, 3)
	msg := []byte("m")
	if err := s.Verify(msg, nil); err == nil {
		t.Fatal("nil signature verified")
	}
	if err := s.Verify(msg, make([]byte, s.modLen())); err == nil {
		t.Fatal("zero signature verified")
	}
	junk := bytes.Repeat([]byte{0x5A}, s.modLen())
	if err := s.Verify(msg, junk); err == nil {
		t.Fatal("junk signature verified")
	}
}

func TestRSADomainSeparationByTag(t *testing.T) {
	p, q, _ := TestSafePrimes256()
	s1, keys, err := NewRSAScheme("tag-one", p, q, 4, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &RSAScheme{
		InstanceTag: "tag-two",
		N:           s1.N, E: s1.E, K: s1.K, NParties: s1.NParties,
		V: s1.V, VKeys: s1.VKeys, Delta: s1.Delta,
	}
	msg := []byte("m")
	sig, err := s1.Combine(msg, signAll(t, s1, keys, msg, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Verify(msg, sig); err == nil {
		t.Fatal("signature transferred across instance tags")
	}
}

func TestRSASecretKeyMismatch(t *testing.T) {
	s, _ := newTestRSA(t, 4, 2)
	if _, err := s.SignShare(&SecretKey{Party: 0}, []byte("m"), rand.Reader); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := s.SignShare(&SecretKey{Party: 9, RSAShare: []byte{1}}, []byte("m"), rand.Reader); err == nil {
		t.Fatal("out-of-range party accepted")
	}
	if _, err := s.SignShare(nil, []byte("m"), rand.Reader); err == nil {
		t.Fatal("nil key accepted")
	}
}

func TestRSAGobRoundTrip(t *testing.T) {
	s, keys := newTestRSA(t, 4, 2)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var back RSAScheme
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	msg := []byte("round trip")
	sig, err := back.Combine(msg, signAll(t, &back, keys, msg, []int{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
}

func TestNewRSASchemeRejectsBadParams(t *testing.T) {
	p, q, _ := TestSafePrimes256()
	if _, _, err := NewRSAScheme("t", p, q, 4, 0, rand.Reader); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := NewRSAScheme("t", p, q, 4, 5, rand.Reader); err == nil {
		t.Fatal("k>n accepted")
	}
	notSafe := mustHex("10001") // 65537 is prime but not safe
	if _, _, err := NewRSAScheme("t", notSafe, q, 4, 2, rand.Reader); err == nil {
		t.Fatal("non-safe prime accepted")
	}
}

func TestEncodeDecodeBigs(t *testing.T) {
	a, b := mustHex("deadbeef"), mustHex("0")
	enc := encodeBigs(a, b)
	out, err := decodeBigs(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Cmp(a) != 0 || out[1].Sign() != 0 {
		t.Fatal("round trip broken")
	}
	if _, err := decodeBigs(enc, 3); err == nil {
		t.Fatal("over-read not detected")
	}
	if _, err := decodeBigs(enc[:3], 1); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, err := decodeBigs(append(enc, 0), 2); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func BenchmarkRSASignShare(b *testing.B) {
	s, keys := newTestRSA(b, 4, 3)
	msg := []byte("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SignShare(keys[0], msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAVerifyShare(b *testing.B) {
	s, keys := newTestRSA(b, 4, 3)
	msg := []byte("bench")
	sh, _ := s.SignShare(keys[0], msg, rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.VerifyShare(msg, sh); err != nil {
			b.Fatal(err)
		}
	}
}
