package edverify

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"
)

// verifyOne checks sig on msg under pub with a fresh Verifier; a key that
// does not decode accepts nothing.
func verifyOne(pub, msg, sig []byte) bool {
	v, err := NewVerifier(pub)
	return err == nil && v.Verify(msg, sig)
}

// same fails unless the table check and crypto/ed25519.Verify agree on
// (pub, msg, sig), and returns their verdict.
func same(t *testing.T, v *Verifier, pub, msg, sig []byte) bool {
	t.Helper()
	want := ed25519.Verify(pub, msg, sig)
	got := false
	if v != nil {
		got = v.Verify(msg, sig)
	} else {
		got = verifyOne(pub, msg, sig)
	}
	if got != want {
		t.Fatalf("pub %x msg %x sig %x: table check %v, crypto/ed25519 %v", pub, msg, sig, got, want)
	}
	return got
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestRFC8032Vectors checks the Ed25519 test vectors of RFC 8032 §7.1
// (TEST 1, 2, 3 and SHA(abc)): the key and signature derived from each
// secret, then the signature's acceptance and the rejection of a changed
// message.
func TestRFC8032Vectors(t *testing.T) {
	for _, tc := range []struct{ secret, pub, msg, sig string }{
		{
			"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
			"d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
			"",
			"e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
		},
		{
			"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
			"3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
			"72",
			"92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
		},
		{
			"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
			"fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
			"af82",
			"6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
		},
		{
			"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
			"ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
			"ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
			"dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b58909351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
		},
	} {
		priv := ed25519.NewKeyFromSeed(mustHex(tc.secret))
		pub, msg, sig := mustHex(tc.pub), mustHex(tc.msg), mustHex(tc.sig)
		if !bytes.Equal(priv.Public().(ed25519.PublicKey), pub) {
			t.Fatalf("secret %s: derived key differs from the vector's", tc.secret)
		}
		if !bytes.Equal(ed25519.Sign(priv, msg), sig) {
			t.Fatalf("secret %s: signature differs from the vector's", tc.secret)
		}
		v, err := NewVerifier(pub)
		if err != nil {
			t.Fatal(err)
		}
		if !same(t, v, pub, msg, sig) {
			t.Fatalf("vector %s rejected", tc.sig)
		}
		if same(t, v, pub, append(msg, 0), sig) {
			t.Fatalf("vector %s accepted for another message", tc.sig)
		}
	}
}

// TestMatchesStdlibRandom: for random keys and messages, the valid
// signature, every single-bit flip of it, s+ℓ in place of s and a wrong
// message get the verdict crypto/ed25519.Verify gives.
func TestMatchesStdlibRandom(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	for k := 0; k < 8; k++ {
		pub, priv, err := ed25519.GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewVerifier(pub)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, rnd.Intn(200))
		rnd.Read(msg)
		sig := ed25519.Sign(priv, msg)
		if !same(t, v, pub, msg, sig) {
			t.Fatal("valid signature rejected")
		}
		same(t, v, pub, append(msg, 1), sig)
		for bit := 0; bit < 8*ed25519.SignatureSize; bit++ {
			bad := bytes.Clone(sig)
			bad[bit/8] ^= 1 << (bit % 8)
			same(t, v, pub, msg, bad)
		}
		// s+ℓ < 2^253 passes the top-bits check and names the same
		// scalar; only canonicity rejects it.
		bad := bytes.Clone(sig)
		sPlusL := new(big.Int).Add(leInt(sig[32:]), order)
		putLE(bad[32:], sPlusL)
		if bad[63]&224 != 0 {
			t.Fatal("s+ℓ overflows the top bits")
		}
		if same(t, v, pub, msg, bad) {
			t.Fatal("s+ℓ accepted")
		}
		for _, n := range []int{0, 63, 65} {
			if v.Verify(msg, make([]byte, n)) {
				t.Fatalf("%d-byte signature accepted", n)
			}
		}
	}
}

// TestEdgeEncodings: keys and R that are low-order points, canonically or
// not (y ≥ p, or x = 0 with the sign bit set), get crypto/ed25519's
// verdicts, some of which accept: the check is cofactorless, a
// non-canonical A is accepted and a non-canonical R is not.
func TestEdgeEncodings(t *testing.T) {
	small := smallOrderEncodings(t)
	rnd := mrand.New(mrand.NewSource(2))
	accepted := 0
	for _, a := range small {
		v, err := NewVerifier(a.enc)
		if err != nil {
			t.Fatalf("%x: %v", a.enc, err)
		}
		for trial := 0; trial < 8; trial++ {
			msg := []byte{byte(trial)}
			// R = [s]B: valid under a key of order 1, and under a
			// key of order 2 or more when h·A happens to vanish.
			s := new(big.Int).Rand(rnd, order)
			sig := make([]byte, ed25519.SignatureSize)
			sb := scalarMultBase(s)
			sb.bytes((*[32]byte)(sig[:32]))
			putLE(sig[32:], s)
			if same(t, v, a.enc, msg, sig) {
				accepted++
			}
			// The same with R replaced by each small-order encoding,
			// and R = [s]B + small point in every encoding.
			for _, r := range small {
				bad := bytes.Clone(sig)
				copy(bad, r.enc)
				same(t, v, a.enc, msg, bad)
				var enc [32]byte
				sum := new(Point).Set(sb)
				var tmp projP1xP1
				var c projCached
				sum.fromP1xP1(tmp.Add(sum, c.FromP3(r.p)))
				copy(bad, sum.bytes(&enc))
				same(t, v, a.enc, msg, bad)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no signature under a small-order key accepted: the check proves nothing")
	}
	// With s = 0 under a small-order key, R′ = [h](−A) is a small-order
	// point: a canonical R sometimes matches it, a non-canonical encoding
	// of the same point never does.
	canonicalHits, nonCanonicalHits := 0, 0
	for _, a := range small {
		for _, r := range small {
			for m := 0; m < 4; m++ {
				sig := make([]byte, ed25519.SignatureSize)
				copy(sig, r.enc)
				if !same(t, nil, a.enc, []byte{byte(m)}, sig) {
					continue
				}
				if r.nonCanonical {
					nonCanonicalHits++
				} else {
					canonicalHits++
				}
			}
		}
	}
	if canonicalHits == 0 || nonCanonicalHits != 0 {
		t.Fatalf("s = 0 under small-order keys: %d canonical and %d non-canonical R accepted", canonicalHits, nonCanonicalHits)
	}
}

type smallPoint struct {
	enc          []byte
	p            *Point
	nonCanonical bool
}

// smallOrderEncodings returns every encoding of the eight points of order
// dividing 8: the canonical ones listed in the literature, their
// sign-bit variants, and y+p for the points with y < 19. It checks that
// each decodes and that 8 times it is the identity.
func smallOrderEncodings(t *testing.T) []smallPoint {
	t.Helper()
	canonical := []string{
		"0100000000000000000000000000000000000000000000000000000000000000",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0000000000000000000000000000000000000000000000000000000000000080",
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
	}
	var out []smallPoint
	add := func(enc []byte, nonCanonical bool) {
		p, err := new(Point).SetBytes(enc)
		if err != nil {
			return
		}
		q := new(Point).Set(p)
		var dbl projP2
		var tmp projP1xP1
		for i := 0; i < 3; i++ {
			q.fromP1xP1(tmp.Double(dbl.FromP3(q)))
		}
		var e [32]byte
		if !bytes.Equal(q.bytes(&e), mustHex(canonical[0])) {
			return
		}
		out = append(out, smallPoint{enc, p, nonCanonical})
	}
	for _, h := range canonical {
		add(mustHex(h), false)
	}
	if len(out) != 8 {
		t.Fatalf("%d of the 8 small-order encodings decode to small-order points", len(out))
	}
	// x = 0 with the sign bit set: the identity and the point of order 2.
	for _, i := range []int{0, 1} {
		e := mustHex(canonical[i])
		e[31] |= 0x80
		add(e, true)
	}
	// y+p for y < 19, both signs: p = 2^255−19 is ed ff … ff 7f.
	for y := 0; y < 19; y++ {
		for _, sign := range []byte{0, 0x80} {
			e := bytes.Repeat([]byte{0xff}, 32)
			e[0] = byte(0xed + y)
			e[31] = 0x7f | sign
			add(e, true)
		}
	}
	if len(out) < 12 {
		t.Fatalf("only %d small-order encodings", len(out))
	}
	return out
}

// TestNonPointKeyRejected: a key that is no curve point, or is not 32
// bytes, fails NewVerifier and checkKey; crypto/ed25519.Verify rejects
// every signature under the first and panics on the second.
func TestNonPointKeyRejected(t *testing.T) {
	// y = 2 is not the y of a curve point.
	bad := make([]byte, 32)
	bad[0] = 2
	if _, err := NewVerifier(bad); err == nil {
		t.Fatal("non-point key built a verifier")
	}
	if err := checkKey(bad); err == nil {
		t.Fatal("non-point key passed checkKey")
	}
	if ed25519.Verify(bad, nil, make([]byte, ed25519.SignatureSize)) {
		t.Fatal("crypto/ed25519 accepted under a non-point key")
	}
	for _, n := range []int{0, 31, 33} {
		if _, err := NewVerifier(make([]byte, n)); err != errKeyLength {
			t.Fatalf("%d-byte key: %v", n, err)
		}
		if err := checkKey(make([]byte, n)); err != errKeyLength {
			t.Fatalf("%d-byte key: %v", n, err)
		}
	}
	var c Cache
	if c.Verify([][]byte{bad}, 0, nil, make([]byte, ed25519.SignatureSize)) {
		t.Fatal("cache accepted under a non-point key")
	}
}

// TestCheckKeysNamesParty: CheckKeys wants exactly n keys that decode and
// names the first party whose key fails.
func TestCheckKeysNamesParty(t *testing.T) {
	keys := make([][]byte, 3)
	for i := range keys {
		pub, _, _ := ed25519.GenerateKey(rand.Reader)
		keys[i] = pub
	}
	if err := CheckKeys(keys, 3); err != nil {
		t.Fatal(err)
	}
	if err := CheckKeys(keys[:2], 3); err == nil {
		t.Fatal("two keys for three parties accepted")
	}
	keys[1] = keys[1][:31]
	if err := CheckKeys(keys, 3); err == nil || err.Error() != "party 1: "+errKeyLength.Error() {
		t.Fatalf("short key of party 1: %v", err)
	}
}

// TestCacheBuildsOncePerKey: a Cache builds a key's table on the first
// check under it and never again while the key's bytes stay, builds
// nothing for the other keys, and rebuilds after a key changes.
func TestCacheBuildsOncePerKey(t *testing.T) {
	keys := make([][]byte, 3)
	privs := make([]ed25519.PrivateKey, 3)
	for i := range keys {
		keys[i], privs[i], _ = ed25519.GenerateKey(rand.Reader)
	}
	var c Cache
	before := Builds()
	sig := ed25519.Sign(privs[1], []byte("m"))
	for i := 0; i < 3; i++ {
		if !c.Verify(keys, 1, []byte("m"), sig) {
			t.Fatal("valid signature rejected")
		}
	}
	if got := Builds() - before; got != 1 {
		t.Fatalf("three checks under one key built %d tables, want 1", got)
	}
	first := c.verifier(keys, 1)
	if c.verifier(keys, 1) != first || Builds()-before != 1 {
		t.Fatal("the key's verifier was rebuilt")
	}
	if c.Verify(keys, 0, []byte("m"), sig) {
		t.Fatal("party 1's signature accepted under party 0's key")
	}
	if got := Builds() - before; got != 2 {
		t.Fatalf("checks under two keys built %d tables, want 2", got)
	}
	keys[1] = keys[2]
	if c.Verify(keys, 1, []byte("m"), sig) {
		t.Fatal("signature accepted under a replaced key")
	}
	if got := Builds() - before; got != 3 {
		t.Fatalf("a replaced key built %d tables in all, want 3", got)
	}
}

// FuzzVerifyMatchesStdlib: on any 32-byte key, message and signature the
// table check gives crypto/ed25519.Verify's verdict.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	pub, priv, _ := ed25519.GenerateKey(mrand.New(mrand.NewSource(3)))
	f.Add([]byte(pub), []byte("m"), ed25519.Sign(priv, []byte("m")))
	f.Add(mustHex("0100000000000000000000000000000000000000000000000000000000000000"), []byte{},
		mustHex("0100000000000000000000000000000000000000000000000000000000000000"+
			"0000000000000000000000000000000000000000000000000000000000000000"))
	f.Add(mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), []byte("x"), make([]byte, 64))
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		if len(pub) != ed25519.PublicKeySize {
			if _, err := NewVerifier(pub); err == nil {
				t.Fatalf("%d-byte key accepted", len(pub))
			}
			return
		}
		same(t, nil, pub, msg, sig)
	})
}

// scalarMultBase returns [s]B by double-and-add, independently of the
// tables.
func scalarMultBase(s *big.Int) *Point {
	r := new(Point).Set(identity)
	var dbl projP2
	var tmp projP1xP1
	var g projCached
	g.FromP3(generator)
	for i := s.BitLen() - 1; i >= 0; i-- {
		r.fromP1xP1(tmp.Double(dbl.FromP3(r)))
		if s.Bit(i) == 1 {
			r.fromP1xP1(tmp.Add(r, &g))
		}
	}
	return r
}

func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}

func putLE(out []byte, x *big.Int) {
	x.FillBytes(out)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
}

func BenchmarkVerify(b *testing.B) {
	pub, priv, _ := ed25519.GenerateKey(rand.Reader)
	msg := make([]byte, 100)
	sig := ed25519.Sign(priv, msg)
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !ed25519.Verify(pub, msg, sig) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		v, _ := NewVerifier(pub)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !v.Verify(msg, sig) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewVerifier(pub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCacheConcurrentFirstChecks: checks racing to be the first under a
// key build its table once.
func TestCacheConcurrentFirstChecks(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(rand.Reader)
	keys := [][]byte{pub}
	sig := ed25519.Sign(priv, []byte("m"))
	var c Cache
	before := Builds()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() { done <- c.Verify(keys, 0, []byte("m"), sig) }()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Error("valid signature rejected")
		}
	}
	if n := Builds() - before; n != 1 {
		t.Fatalf("four concurrent first checks built %d tables, want 1", n)
	}
}
