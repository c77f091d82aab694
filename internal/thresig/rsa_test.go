package thresig

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"

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

// TestRSAVerifyShareChecksEncoding: a share carries no proof, so
// VerifyShare checks what a share alone shows — a party of the scheme and
// one value 0 < x_i < N — and a well-formed share on another message
// passes it (Combine finds that one).
func TestRSAVerifyShareChecksEncoding(t *testing.T) {
	s, keys := newTestRSA(t, 4, 3)
	msg := []byte("m")
	good := signAll(t, s, keys, msg, []int{1})[0]
	if err := s.VerifyShare(msg, good); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyShare([]byte("n"), good); err != nil {
		t.Fatalf("a well-formed share failed VerifyShare: %v", err)
	}
	for name, bad := range map[string]Share{
		"party 99":         {Party: 99, Data: good.Data},
		"party -1":         {Party: -1, Data: good.Data},
		"truncated":        {Party: 1, Data: good.Data[:len(good.Data)-1]},
		"trailing byte":    {Party: 1, Data: append(append([]byte(nil), good.Data...), 0)},
		"empty":            {Party: 1},
		"zero":             {Party: 1, Data: encodeBigs(new(big.Int))},
		"N":                {Party: 1, Data: encodeBigs(s.N)},
		"a 128 KiB value":  {Party: 1, Data: encodeBigs(new(big.Int).SetBytes(bytes.Repeat([]byte{0xff}, 128<<10)))},
		"a share and more": {Party: 1, Data: encodeBigs(big.NewInt(2), big.NewInt(3))},
	} {
		if err := s.VerifyShare(msg, bad); !errors.Is(err, ErrInvalidShare) {
			t.Errorf("%s: %v, want ErrInvalidShare", name, err)
		}
	}
}

// wrongShare returns a well-formed share of party i on msg that is not
// its share: kind 0 is its share on another message, 1 its share times
// 3, 2 a random value, 3 its share squared.
func wrongShare(t testing.TB, s *RSAScheme, key *SecretKey, msg []byte, kind int) Share {
	t.Helper()
	sh := signAll(t, s, []*SecretKey{key}, msg, []int{0})[0]
	xi, err := s.value(sh)
	if err != nil {
		t.Fatal(err)
	}
	switch kind % 4 {
	case 0:
		return signAll(t, s, []*SecretKey{key}, []byte("another message"), []int{0})[0]
	case 1:
		xi.Mul(xi, big.NewInt(3)).Mod(xi, s.N)
	case 2:
		r, err := rand.Int(rand.Reader, s.N)
		if err != nil {
			t.Fatal(err)
		}
		xi = r.Add(r, big.NewInt(1)).Mod(r, s.N)
	case 3:
		xi.Mul(xi, xi).Mod(xi, s.N)
	}
	return Share{Party: key.Party, Data: encodeBigs(xi)}
}

// binomial is C(n, k).
func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// combines counts the RSA combines f makes.
func combines(t testing.TB, f func()) int {
	t.Helper()
	n := 0
	onCombine = func() { n++ }
	defer func() { onCombine = nil }()
	f()
	return n
}

// tWrongFirst deals an n = 3t+1, K = t+1 key and returns t wrong shares
// of every kind, then every honest share.
func tWrongFirst(t *testing.T, n int, msg []byte) (*RSAScheme, []Share) {
	t.Helper()
	f := (n - 1) / 3
	s, keys := newTestRSA(t, n, f+1)
	shares := make([]Share, 0, n)
	for i := 0; i < f; i++ {
		shares = append(shares, wrongShare(t, s, keys[i], msg, i))
	}
	for i := f; i < n; i++ {
		shares = append(shares, signAll(t, s, keys, msg, []int{i})[0])
	}
	return s, shares
}

// TestRSACombineNamesEachWrongShare: at n = 4, 7 and 16 (K = t+1), t
// wrong shares of every kind arrive first and every honest share after
// them. Combine returns the signature, names exactly the wrong shares —
// the 2t+1 honest ones are a consistent set of at least 2t — and makes
// at most C(2t+1, t+1) combines, the K-subsets of the first 2t+1, plus
// one for each share outside the subset that verified.
func TestRSACombineNamesEachWrongShare(t *testing.T) {
	msg := []byte("every culprit named")
	for _, n := range []int{4, 7, 16} {
		f := (n - 1) / 3
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s, shares := tWrongFirst(t, n, msg)
			var sig []byte
			var bad []int
			var err error
			tries := combines(t, func() { sig, bad, err = Combine(s, msg, shares) })
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(msg, sig); err != nil {
				t.Fatalf("combined signature does not verify: %v", err)
			}
			want := make([]int, f)
			for i := range want {
				want[i] = i
			}
			if !reflect.DeepEqual(bad, want) {
				t.Fatalf("culprits %v, want %v", bad, want)
			}
			if limit := binomial(2*f+1, f+1) + n - (f + 1); tries > limit {
				t.Fatalf("%d combines, want at most C(%d, %d) + %d = %d", tries, 2*f+1, f+1, n-(f+1), limit)
			}
			t.Logf("n=%d: %d combines", n, tries)
		})
	}
}

// TestRSACombinerSearchesEachSubsetOnce: shares arrive one at a time, t
// wrong ones first, and one Combiner is called on every share held after
// each arrival from the K-th on, as the client and the checkpoint
// tracker call it, until a signature comes back. A subset an earlier
// call tried is not combined again, so all the calls together make at
// most C(2t+1, t+1) combines, plus t to test the wrong shares at the
// last. No honest share is named; at t = 1 the wrong one is, while for
// t ≥ 2 the t+1 honest shares at hand are too few to name a share
// against.
func TestRSACombinerSearchesEachSubsetOnce(t *testing.T) {
	msg := []byte("one arrival at a time")
	for _, n := range []int{4, 7, 16} {
		f := (n - 1) / 3
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s, shares := tWrongFirst(t, n, msg)
			var c Combiner
			var sig []byte
			var bad []int
			held := f + 1
			tries := combines(t, func() {
				for ; held <= n && sig == nil; held++ {
					var err error
					if sig, bad, err = c.Combine(s, msg, shares[:held], Own{}); err != nil && !errors.Is(err, ErrInsufficient) {
						t.Fatal(err)
					}
				}
			})
			if sig == nil || s.Verify(msg, sig) != nil {
				t.Fatal("no verifying signature")
			}
			if held-1 != 2*f+1 {
				t.Fatalf("signed after %d shares, want 2t+1 = %d", held-1, 2*f+1)
			}
			for _, i := range bad {
				if i >= f {
					t.Fatalf("honest share %d named (culprits %v)", i, bad)
				}
			}
			if f == 1 && !reflect.DeepEqual(bad, []int{0}) {
				t.Fatalf("culprits %v, want [0]", bad)
			}
			if limit := binomial(2*f+1, f+1) + f; tries > limit {
				t.Fatalf("%d combines over the arrivals, want at most C(%d, %d) + %d = %d", tries, 2*f+1, f+1, f, limit)
			}
			t.Logf("n=%d: %d combines over %d calls", n, tries, held-1-f)
		})
	}
}

// TestRSACombineCraftedSharesNameNoHonest: two corrupted parties at n = 7
// (K = 3, t = 2) send shares whose errors cancel with one honest share:
// x_i·z^{g(i)} for g(x) = x(x − h), h the x-coordinate of party 2. They
// arrive first, then party 3, party 2 and the rest: the first combine
// fails, the crafted subset {0, 1, party 2} verifies to the right
// signature, and every other honest share fails against two crafted
// ones. Those honest shares and the subset number 3 < 2t, no consistent
// set of 2t, so nothing is named: with two of three shares from another
// sharing of the same key, no combination tells the dealt sharing apart
// (DESIGN.md, substitution 9).
func TestRSACombineCraftedSharesNameNoHonest(t *testing.T) {
	s, keys := newTestRSA(t, 7, 3)
	msg := []byte("crafted shares")
	shares := signAll(t, s, keys, msg, []int{0, 1, 3, 2, 4, 5, 6})
	h := int64(3) // party 2
	z := big.NewInt(5)
	for i := 0; i < 2; i++ {
		xi, _ := s.value(shares[i])
		x := int64(i + 1)
		e := new(big.Int).Exp(z, big.NewInt(x*(x-h)), s.N) // g(x) < 0 here: a power of 1/z
		shares[i].Data = encodeBigs(xi.Mul(xi, e).Mod(xi, s.N))
	}
	if _, err := s.Combine(msg, []Share{shares[0], shares[1], shares[3]}); err != nil {
		t.Fatalf("the crafted shares and party 2's did not combine: %v", err)
	}
	sig, bad, err := Combine(s, msg, shares)
	if err != nil || s.Verify(msg, sig) != nil {
		t.Fatalf("Combine: %v", err)
	}
	if bad != nil {
		t.Fatalf("culprits %v: honest shares named against crafted ones", bad)
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
		Delta: s1.Delta,
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
