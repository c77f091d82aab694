package thresig

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"sintra/internal/adversary"
)

// Property: for random messages, sign→verify round-trips and any K-subset
// combines to the same verifying signature.
func TestQuickRSASignAnyMessage(t *testing.T) {
	s, keys := newTestRSA(t, 4, 2)
	f := func(msg []byte) bool {
		sh0, err := s.SignShare(keys[0], msg, rand.Reader)
		if err != nil || s.VerifyShare(msg, sh0) != nil {
			return false
		}
		sh2, err := s.SignShare(keys[2], msg, rand.Reader)
		if err != nil {
			return false
		}
		sig, err := s.Combine(msg, []Share{sh0, sh2})
		if err != nil {
			return false
		}
		return s.Verify(msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: certificates verify for the exact message only.
func TestQuickCertMessageBinding(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	s, keys := newTestCert(t, st, RuleQuorum)
	f := func(msg, other []byte) bool {
		var shares []Share
		for i := 0; i < 3; i++ {
			sh, err := s.SignShare(keys[i], msg, rand.Reader)
			if err != nil {
				return false
			}
			shares = append(shares, sh)
		}
		sig, err := s.Combine(msg, shares)
		if err != nil {
			return false
		}
		if s.Verify(msg, sig) != nil {
			return false
		}
		if !bytes.Equal(msg, other) && s.Verify(other, sig) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: at n = 7 (K = 3), up to t = 2 parties' shares are corrupted —
// a byte of the encoding changed, which leaves a wrong value or a
// malformed share — and all seven arrive in a random order. Combine
// returns a verifying signature and names no honest share; every
// malformed share is named, and when a wrong share is among the first K
// it combines, every corrupted one is.
func TestQuickRSACombineNamesOnlyWrongShares(t *testing.T) {
	s, keys := newTestRSA(t, 7, 3)
	msg := []byte("fuzzed")
	good := signAll(t, s, keys, msg, []int{0, 1, 2, 3, 4, 5, 6})
	f := func(seed int64, corrupt uint8, idx [2]uint16, b [2]byte) bool {
		rng := mrand.New(mrand.NewSource(seed))
		order := rng.Perm(7)
		shares := make([]Share, 7)
		wrong := map[int]bool{}
		var malformed []int
		for pos, p := range order {
			shares[pos] = good[p]
		}
		for k := 0; k < int(corrupt%3); k++ {
			pos := rng.Intn(7)
			if wrong[pos] {
				continue
			}
			data := append([]byte(nil), shares[pos].Data...)
			i := int(idx[k]) % len(data)
			if data[i] == b[k] {
				b[k] ^= 0xFF
			}
			data[i] = b[k]
			shares[pos].Data = data
			wrong[pos] = true
			if s.VerifyShare(msg, shares[pos]) != nil {
				malformed = append(malformed, pos)
			}
		}
		sig, bad, err := Combine(s, msg, shares)
		if err != nil || s.Verify(msg, sig) != nil {
			return false
		}
		named := map[int]bool{}
		for _, i := range bad {
			if !wrong[i] {
				return false
			}
			named[i] = true
		}
		for _, i := range malformed {
			if !named[i] {
				return false
			}
		}
		// The first K well-formed shares: one wrong among them fails the
		// first combine, and then every corrupted share is tested.
		firstK := 0
		for pos := 0; pos < 7 && firstK < s.K; pos++ {
			if s.VerifyShare(msg, shares[pos]) != nil {
				continue
			}
			firstK++
			if wrong[pos] && len(named) != len(wrong) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
