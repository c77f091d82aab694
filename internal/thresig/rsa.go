package thresig

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"slices"

	"sintra/internal/adversary"
)

// RSAScheme is Shoup's practical threshold RSA signature scheme
// (EUROCRYPT 2000). A trusted dealer shares the RSA signing exponent d
// with a degree K-1 polynomial over Z_m (m = p'q' for safe primes
// p = 2p'+1, q = 2q'+1); any K valid signature shares combine into a
// standard RSA signature y with y^E = H(M)² mod N. A share is its value
// alone: Shoup's proof of correctness, and the verification keys it is
// checked against, serve robustness only, which the package-level
// Combine gets by combining (see combine).
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
	// Delta is NParties! — Shoup's denominator-clearing factor.
	Delta *big.Int
}

var _ Scheme = (*RSAScheme)(nil)

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
		h.Write(binary.BigEndian.AppendUint32(nil, ctr))
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

// SignShare returns the share x_i = x̂^{2Δ s_i}, its value alone: there
// is no proof of correctness (see Combine).
func (s *RSAScheme) SignShare(sk *SecretKey, msg []byte, _ io.Reader) (Share, error) {
	if sk == nil || len(sk.RSAShare) == 0 || sk.Party < 0 || sk.Party >= s.NParties {
		return Share{}, ErrWrongKey
	}
	exp := new(big.Int).Lsh(s.Delta, 1) // 2Δ
	exp.Mul(exp, new(big.Int).SetBytes(sk.RSAShare))
	return Share{Party: sk.Party, Data: encodeBigs(new(big.Int).Exp(s.digest(msg), exp, s.N))}, nil
}

// VerifyShare checks what can be checked of a share on its own: a party
// of the scheme and the encoding of one value 0 < x_i < N. A share
// carries no proof, so a well-formed wrong share passes; Combine finds
// it by combining.
func (s *RSAScheme) VerifyShare(_ []byte, sh Share) error {
	_, err := s.value(sh)
	return err
}

// value decodes a share's x_i (VerifyShare's check).
func (s *RSAScheme) value(sh Share) (*big.Int, error) {
	if sh.Party < 0 || sh.Party >= s.NParties {
		return nil, ErrInvalidShare
	}
	parts, err := decodeBigs(sh.Data, 1)
	if err != nil || parts[0].Sign() <= 0 || parts[0].Cmp(s.N) >= 0 {
		return nil, ErrInvalidShare
	}
	return parts[0], nil
}

// Sufficient reports whether the parties meet the K-of-n opening rule.
func (s *RSAScheme) Sufficient(parties adversary.Set) bool {
	return parties.Count() >= s.K
}

// Combine assembles a standard RSA signature from shares that need not
// be verified, as the package-level Combine does.
func (s *RSAScheme) Combine(msg []byte, shares []Share) ([]byte, error) {
	sig, _, err := s.combine(msg, shares, new(adversary.Set))
	return sig, err
}

// points decodes the shares, the first of each party, in order; bad are
// the indexes of shares that fail VerifyShare.
func (s *RSAScheme) points(shares []Share) (pts []rsaPoint, bad []int) {
	seen := make([]bool, s.NParties)
	for i, sh := range shares {
		if xi, err := s.value(sh); err != nil {
			bad = append(bad, i)
		} else if !seen[sh.Party] {
			seen[sh.Party] = true
			pts = append(pts, rsaPoint{x: sh.Party + 1, xi: xi, at: i})
		}
	}
	return pts, bad
}

// onCombine, when set, is called at each combine (tests count them).
var onCombine func()

// combine is Combiner.Combine for RSA shares, which carry no proof.
// Shares that fail VerifyShare are culprits at once. Of the others, the
// K-subsets of the first 2K−1 (K of them honest) are combined in
// lexicographic order until one verifies, skipping those whose parties
// are all in tried, which an earlier call combined. Once a combine has
// failed, each other share is combined with K−1 members of the subset
// that verified; if the subset and those that pass number 2(K−1), K−1 of
// them are honest and fix the dealt sharing with the point 0, so those
// that failed are culprits. With fewer, honest shares may be failing
// against crafted ones, and none is named (DESIGN.md, substitution 9).
func (s *RSAScheme) combine(msg []byte, shares []Share, tried *adversary.Set) (sig []byte, bad []int, err error) {
	pts, bad := s.points(shares)
	if len(pts) < s.K {
		return nil, bad, ErrInsufficient
	}
	x := s.digest(msg)
	window := min(len(pts), 2*s.K-1)
	sub := make([]int, s.K)
	for i := range sub {
		sub[i] = i
	}
	pick := make([]rsaPoint, s.K)
	try := func() ([]byte, error) {
		if onCombine != nil {
			onCombine()
		}
		return s.combinePoints(x, pick)
	}
	failed := *tried != 0
	for {
		var parties adversary.Set
		for i, j := range sub {
			pick[i], parties = pts[j], parties.Add(pts[j].x-1)
		}
		if !parties.SubsetOf(*tried) {
			if sig, err = try(); err == nil {
				break
			}
			failed = true
		}
		if !nextSubset(sub, window) {
			for _, p := range pts[:window] {
				*tried = tried.Add(p.x - 1)
			}
			return nil, bad, ErrInsufficient
		}
	}
	if !failed || len(pts) < 2*(s.K-1) {
		return sig, bad, nil
	}
	consistent, wrong := s.K, []int(nil)
	for j, p := range pts {
		if slices.Contains(sub, j) {
			continue
		}
		pick[s.K-1] = p
		if _, err := try(); err != nil {
			wrong = append(wrong, p.at)
		} else {
			consistent++
		}
	}
	if consistent >= 2*(s.K-1) {
		bad = append(bad, wrong...)
		slices.Sort(bad)
	}
	return sig, bad, nil
}

// nextSubset advances sub, an ascending K-subset of [0, m), to its
// lexicographic successor; false when sub was the last.
func nextSubset(sub []int, m int) bool {
	k := len(sub)
	for i := k - 1; i >= 0; i-- {
		if sub[i] < m-k+i {
			sub[i]++
			for j := i + 1; j < k; j++ {
				sub[j] = sub[j-1] + 1
			}
			return true
		}
	}
	return false
}

// combinePoints combines K parsed shares on the digest x:
// w = Π x_i^{2λ_i} with integer Lagrange coefficients λ_i = Δ·Π j/(j−i),
// then y = w^b · x^a for ea + 4Δ²b = 1, so that y^E = x mod N; a y that
// fails that check is ErrInvalidSignature.
func (s *RSAScheme) combinePoints(x *big.Int, chosen []rsaPoint) ([]byte, error) {
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
	// y^e = (x̂^{4Δ²})^b · x̂^{ea} = x̂ (were the gcd not 1, the check
	// below would fail).
	fourDelta2 := new(big.Int).Mul(s.Delta, s.Delta)
	fourDelta2.Lsh(fourDelta2, 2)
	a, b := new(big.Int), new(big.Int)
	new(big.Int).GCD(a, b, s.E, fourDelta2)
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
	at int // index among the shares given to combine
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
	var out []byte
	for _, v := range vals {
		b := v.Bytes()
		out = append(binary.BigEndian.AppendUint32(out, uint32(len(b))), b...)
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
