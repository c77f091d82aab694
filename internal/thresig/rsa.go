package thresig

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"

	"sintra/internal/adversary"
	"sintra/internal/modexp"
)

// RSAScheme is Shoup's practical threshold RSA signature scheme
// (EUROCRYPT 2000). A trusted dealer shares the RSA signing exponent d
// with a degree K-1 polynomial over Z_m (m = p'q' for safe primes
// p = 2p'+1, q = 2q'+1); any K valid signature shares combine into a
// standard RSA signature y with y^E = H(M)² mod N.
//
// All fields are public values identical on every party; they are exported
// for serialization and must be treated as read-only.
type RSAScheme struct {
	// InstanceTag domain-separates this instance.
	InstanceTag string
	// N is the RSA modulus, E the public exponent.
	N, E *big.Int
	// K is the number of shares needed to combine.
	K int
	// NParties is the number of share holders.
	NParties int
	// V is the verification base (a quadratic residue mod N) and
	// VKeys[i] = V^{s_i} the per-party verification keys.
	V     *big.Int
	VKeys []*big.Int
	// Delta is NParties! — Shoup's denominator-clearing factor.
	Delta *big.Int

	// Fixed-base exponentiation tables for V and the verification keys:
	// every share signature and verification exponentiates them, and the
	// scheme lives for the whole deployment. Built lazily on first use so
	// deserialized schemes need no explicit init.
	precompOnce sync.Once
	vTab        *modexp.Table
	vkTabs      []*modexp.Table
}

var _ Scheme = (*RSAScheme)(nil)

// rsaProofHashBits is the bit length of the Fiat-Shamir challenge (L1).
const rsaProofHashBits = 128

// zBits bounds the proof response z = s_i·c + r: r has |N|+2·L1+64 bits
// and s_i·c at most |N|+L1, so the sum fits in |N|+2·L1+65 bits. Honest
// provers never exceed it; VerifyShare rejects anything longer.
func (s *RSAScheme) zBits() int { return s.N.BitLen() + 2*rsaProofHashBits + 65 }

// precompute builds the fixed-base tables (idempotent, concurrency-safe).
func (s *RSAScheme) precompute() {
	s.precompOnce.Do(func() {
		s.vTab = modexp.NewTable(s.V, s.N, s.zBits())
		s.vkTabs = make([]*modexp.Table, len(s.VKeys))
		for i, vk := range s.VKeys {
			s.vkTabs[i] = modexp.NewTable(vk, s.N, rsaProofHashBits)
		}
	})
}

// NewRSAScheme deals a fresh Shoup threshold RSA key over the safe primes
// p and q: K-of-n opening, public exponent 65537. It returns the public
// scheme and one secret key per party.
func NewRSAScheme(tag string, p, q *big.Int, n, k int, rnd io.Reader) (*RSAScheme, []*SecretKey, error) {
	if k < 1 || k > n || n < 1 {
		return nil, nil, fmt.Errorf("thresig: bad rsa parameters k=%d n=%d", k, n)
	}
	one := big.NewInt(1)
	pp := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1) // p' = (p-1)/2
	qq := new(big.Int).Rsh(new(big.Int).Sub(q, one), 1)
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) || !pp.ProbablyPrime(20) || !qq.ProbablyPrime(20) {
		return nil, nil, fmt.Errorf("thresig: p and q must be safe primes")
	}
	bigN := new(big.Int).Mul(p, q)
	m := new(big.Int).Mul(pp, qq)
	e := big.NewInt(65537)
	if new(big.Int).GCD(nil, nil, e, m).Cmp(one) != 0 {
		return nil, nil, fmt.Errorf("thresig: gcd(e, m) != 1")
	}
	d := new(big.Int).ModInverse(e, m)

	// Polynomial over Z_m with f(0) = d.
	coeffs := make([]*big.Int, k)
	coeffs[0] = d
	for i := 1; i < k; i++ {
		c, err := rand.Int(rnd, m)
		if err != nil {
			return nil, nil, fmt.Errorf("thresig: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		x := big.NewInt(int64(i + 1))
		acc := new(big.Int)
		for j := len(coeffs) - 1; j >= 0; j-- {
			acc.Mul(acc, x)
			acc.Add(acc, coeffs[j])
			acc.Mod(acc, m)
		}
		shares[i] = acc
	}

	// Verification base: a random quadratic residue.
	r, err := rand.Int(rnd, bigN)
	if err != nil {
		return nil, nil, fmt.Errorf("thresig: %w", err)
	}
	v := new(big.Int).Mod(new(big.Int).Mul(r, r), bigN)
	vkeys := make([]*big.Int, n)
	for i := range vkeys {
		vkeys[i] = new(big.Int).Exp(v, shares[i], bigN)
	}

	delta := big.NewInt(1)
	for i := 2; i <= n; i++ {
		delta.Mul(delta, big.NewInt(int64(i)))
	}

	scheme := &RSAScheme{
		InstanceTag: tag,
		N:           bigN,
		E:           e,
		K:           k,
		NParties:    n,
		V:           v,
		VKeys:       vkeys,
		Delta:       delta,
	}
	keys := make([]*SecretKey, n)
	for i := range keys {
		keys[i] = &SecretKey{Party: i, RSAShare: shares[i].Bytes()}
	}
	return scheme, keys, nil
}

// GenerateSafePrime finds a prime p = 2p'+1 with p' prime, of the given
// bit length.
func GenerateSafePrime(bits int, rnd io.Reader) (*big.Int, error) {
	one := big.NewInt(1)
	for {
		pp, err := rand.Prime(rnd, bits-1)
		if err != nil {
			return nil, fmt.Errorf("thresig: safe prime: %w", err)
		}
		p := new(big.Int).Lsh(pp, 1)
		p.Add(p, one)
		if p.ProbablyPrime(32) {
			return p, nil
		}
	}
}

// Tag returns the instance tag.
func (s *RSAScheme) Tag() string { return s.InstanceTag }

// modLen returns the modulus size in bytes.
func (s *RSAScheme) modLen() int { return (s.N.BitLen() + 7) / 8 }

// digest maps a message into the quadratic residues of Z_N*:
// x̂ = (H*(tag||msg) mod N)² mod N, where H* is a counter-expanded SHA-256.
func (s *RSAScheme) digest(msg []byte) *big.Int {
	want := s.modLen() + 16
	out := make([]byte, 0, want+sha256.Size)
	var ctr uint32
	for len(out) < want {
		h := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write([]byte("sintra/thresig/rsa/"))
		h.Write([]byte(s.InstanceTag))
		h.Write([]byte{0})
		h.Write(msg)
		out = h.Sum(out)
		ctr++
	}
	x := new(big.Int).SetBytes(out[:want])
	x.Mod(x, s.N)
	return x.Mul(x, x).Mod(x, s.N)
}

// challenge computes the Fiat-Shamir challenge of a share proof.
func (s *RSAScheme) challenge(vk, xTilde, xi2, vPrime, xPrime *big.Int) *big.Int {
	h := sha256.New()
	h.Write([]byte("sintra/thresig/rsa/chal/"))
	h.Write([]byte(s.InstanceTag))
	for _, b := range []*big.Int{s.V, vk, xTilde, xi2, vPrime, xPrime} {
		buf := b.Bytes()
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(buf)))
		h.Write(lb[:])
		h.Write(buf)
	}
	sum := h.Sum(nil)
	return new(big.Int).SetBytes(sum[:rsaProofHashBits/8])
}

// SignShare produces x_i = x̂^{2Δ s_i} with Shoup's proof of correctness.
func (s *RSAScheme) SignShare(sk *SecretKey, msg []byte, rnd io.Reader) (Share, error) {
	if sk == nil || len(sk.RSAShare) == 0 || sk.Party < 0 || sk.Party >= s.NParties {
		return Share{}, ErrWrongKey
	}
	si := new(big.Int).SetBytes(sk.RSAShare)
	x := s.digest(msg)
	exp := new(big.Int).Lsh(s.Delta, 1) // 2Δ
	exp.Mul(exp, si)
	xi := new(big.Int).Exp(x, exp, s.N)

	// Proof: log_v(v_i) = log_{x̃}(x_i²) = s_i, with x̃ = x̂^{4Δ}.
	xTilde := new(big.Int).Exp(x, new(big.Int).Lsh(s.Delta, 2), s.N)
	xi2 := new(big.Int).Mod(new(big.Int).Mul(xi, xi), s.N)
	// r ∈ [0, 2^{|N| + 2·L1 + 64})
	bound := new(big.Int).Lsh(big.NewInt(1), uint(s.N.BitLen()+2*rsaProofHashBits+64))
	r, err := rand.Int(rnd, bound)
	if err != nil {
		return Share{}, fmt.Errorf("thresig: %w", err)
	}
	s.precompute()
	vPrime := s.vTab.Exp(r)
	xPrime := new(big.Int).Exp(xTilde, r, s.N)
	c := s.challenge(s.VKeys[sk.Party], xTilde, xi2, vPrime, xPrime)
	z := new(big.Int).Mul(si, c)
	z.Add(z, r)
	return Share{Party: sk.Party, Data: encodeBigs(xi, c, z)}, nil
}

// VerifyShare checks a signature share's proof of correctness. It
// bounds c and z before any exponentiation, so a share's cost does not
// grow with its encoded size.
func (s *RSAScheme) VerifyShare(msg []byte, sh Share) error {
	if sh.Party < 0 || sh.Party >= s.NParties {
		return ErrInvalidShare
	}
	parts, err := decodeBigs(sh.Data, 3)
	if err != nil {
		return ErrInvalidShare
	}
	xi, c, z := parts[0], parts[1], parts[2]
	if xi.Sign() <= 0 || xi.Cmp(s.N) >= 0 {
		return ErrInvalidShare
	}
	if c.BitLen() > rsaProofHashBits || z.Sign() < 0 || z.BitLen() > s.zBits() {
		return ErrInvalidShare
	}
	s.precompute()
	x := s.digest(msg)
	xTilde := new(big.Int).Exp(x, new(big.Int).Lsh(s.Delta, 2), s.N)
	xi2 := new(big.Int).Mod(new(big.Int).Mul(xi, xi), s.N)
	vk := s.VKeys[sh.Party]

	// v' = v^z · (v_i^c)^{-1}, x' = x̃^z · (x_i²)^{-c}; v^z and v_i^c
	// take the fixed-base tables, inverting after the exponentiation.
	vkC := s.vkTabs[sh.Party].Exp(c)
	vkCInv := new(big.Int).ModInverse(vkC, s.N)
	if vkCInv == nil {
		return ErrInvalidShare
	}
	xi2Inv := new(big.Int).ModInverse(xi2, s.N)
	if xi2Inv == nil {
		return ErrInvalidShare
	}
	vPrime := s.vTab.Exp(z)
	vPrime.Mul(vPrime, vkCInv).Mod(vPrime, s.N)
	xPrime := new(big.Int).Exp(xTilde, z, s.N)
	xPrime.Mul(xPrime, new(big.Int).Exp(xi2Inv, c, s.N)).Mod(xPrime, s.N)

	if s.challenge(vk, xTilde, xi2, vPrime, xPrime).Cmp(c) != 0 {
		return ErrInvalidShare
	}
	return nil
}

// Sufficient reports whether the parties meet the K-of-n opening rule.
func (s *RSAScheme) Sufficient(parties adversary.Set) bool {
	return parties.Count() >= s.K
}

// Combine assembles a standard RSA signature from the first K shares of
// distinct parties, verified or not (a wrong one fails the final check):
// w = Π x_i^{2λ_i} with integer Lagrange coefficients λ_i = Δ·Π j/(j−i),
// then y = w^a · x̂^b for ea + 4Δ²b = 1, so that y^E = x̂ mod N.
func (s *RSAScheme) Combine(msg []byte, shares []Share) ([]byte, error) {
	// Deduplicate by party, keep the first K.
	var chosen []rsaPoint
	seen := make(map[int]bool, len(shares))
	for _, sh := range shares {
		if seen[sh.Party] || sh.Party < 0 || sh.Party >= s.NParties {
			continue
		}
		parts, err := decodeBigs(sh.Data, 3)
		if err != nil {
			continue
		}
		seen[sh.Party] = true
		chosen = append(chosen, rsaPoint{x: sh.Party + 1, xi: parts[0]})
		if len(chosen) == s.K {
			break
		}
	}
	if len(chosen) < s.K {
		return nil, ErrInsufficient
	}

	w := big.NewInt(1)
	for i, p := range chosen {
		lam := s.lagrange(chosen, i)
		exp := new(big.Int).Lsh(lam, 1) // 2λ
		base := p.xi
		if exp.Sign() < 0 {
			base = new(big.Int).ModInverse(p.xi, s.N)
			if base == nil {
				return nil, ErrInvalidShare
			}
			exp.Neg(exp)
		}
		w.Mul(w, new(big.Int).Exp(base, exp, s.N)).Mod(w, s.N)
	}

	// ea + 4Δ²b = 1, so y = w^b · x̂^a satisfies
	// y^e = (x̂^{4Δ²})^b · x̂^{ea} = x̂.
	fourDelta2 := new(big.Int).Mul(s.Delta, s.Delta)
	fourDelta2.Lsh(fourDelta2, 2)
	a, b := new(big.Int), new(big.Int)
	g := new(big.Int).GCD(a, b, s.E, fourDelta2)
	if g.Cmp(big.NewInt(1)) != 0 {
		return nil, fmt.Errorf("thresig: gcd(e, 4Δ²) != 1")
	}
	x := s.digest(msg)
	y := modExpSigned(w, b, s.N)
	y.Mul(y, modExpSigned(x, a, s.N)).Mod(y, s.N)

	if new(big.Int).Exp(y, s.E, s.N).Cmp(x) != 0 {
		return nil, ErrInvalidSignature
	}
	return y.FillBytes(make([]byte, s.modLen())), nil
}

// rsaPoint is one parsed signature share for combination.
type rsaPoint struct {
	x  int // Shamir x-coordinate (party+1)
	xi *big.Int
}

// lagrange computes λ = Δ · Π_{j≠i} x_j / (x_j − x_i), an exact integer.
func (s *RSAScheme) lagrange(chosen []rsaPoint, i int) *big.Int {
	num := new(big.Int).Set(s.Delta)
	den := big.NewInt(1)
	xi := chosen[i].x
	for j, p := range chosen {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(p.x)))
		den.Mul(den, big.NewInt(int64(p.x-xi)))
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		// Cannot happen: Δ clears every denominator of k <= n points.
		panic("thresig: non-integer Lagrange coefficient")
	}
	return q
}

// modExpSigned computes base^exp mod n for possibly negative exp.
func modExpSigned(base, exp, n *big.Int) *big.Int {
	if exp.Sign() >= 0 {
		return new(big.Int).Exp(base, exp, n)
	}
	inv := new(big.Int).ModInverse(base, n)
	return new(big.Int).Exp(inv, new(big.Int).Neg(exp), n)
}

// Verify checks y^E = x̂ mod N.
func (s *RSAScheme) Verify(msg []byte, sig []byte) error {
	if len(sig) != s.modLen() {
		return ErrInvalidSignature
	}
	y := new(big.Int).SetBytes(sig)
	if y.Sign() <= 0 || y.Cmp(s.N) >= 0 {
		return ErrInvalidSignature
	}
	if new(big.Int).Exp(y, s.E, s.N).Cmp(s.digest(msg)) != 0 {
		return ErrInvalidSignature
	}
	return nil
}

// encodeBigs serializes big integers with 4-byte length prefixes.
func encodeBigs(vals ...*big.Int) []byte {
	size := 0
	for _, v := range vals {
		size += 4 + len(v.Bytes())
	}
	out := make([]byte, 0, size)
	for _, v := range vals {
		b := v.Bytes()
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		out = append(out, lb[:]...)
		out = append(out, b...)
	}
	return out
}

// decodeBigs parses exactly n length-prefixed big integers.
func decodeBigs(data []byte, n int) ([]*big.Int, error) {
	out := make([]*big.Int, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("thresig: truncated encoding")
		}
		l := binary.BigEndian.Uint32(data[:4])
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, fmt.Errorf("thresig: truncated encoding")
		}
		out = append(out, new(big.Int).SetBytes(data[:l]))
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("thresig: trailing bytes")
	}
	return out, nil
}
