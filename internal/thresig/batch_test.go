package thresig

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"reflect"
	"testing"
)

// batchScheme deals a 4-of-7 RSA scheme over the embedded test primes
// and signs one share per party on msg.
func batchScheme(t testing.TB, msg []byte) (*RSAScheme, []Share) {
	t.Helper()
	p, q := TestSafePrimes256()
	scheme, keys, err := NewRSAScheme("batch-test", p, q, 7, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]Share, len(keys))
	for i, sk := range keys {
		sh, err := scheme.SignShare(sk, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = sh
	}
	return scheme, shares
}

func TestRSABatchVerifyAllValid(t *testing.T) {
	msg := []byte("batch message")
	scheme, shares := batchScheme(t, msg)
	for _, k := range []int{0, 1, 2, 7} {
		if bad := scheme.BatchVerifyShares(msg, shares[:k]); bad != nil {
			t.Fatalf("k=%d: valid batch flagged %v", k, bad)
		}
	}
}

func TestRSABatchIsolatesCulprits(t *testing.T) {
	msg := []byte("batch message")
	for _, culprits := range [][]int{{0}, {6}, {2, 5}, {0, 3, 6}, {0, 1, 2, 3, 4, 5, 6}} {
		scheme, shares := batchScheme(t, msg)
		for _, c := range culprits {
			// A share for the wrong message: commitments and challenge
			// are self-consistent, only the equations fail — the case
			// the folded product test exists to catch.
			parts, err := decodeBigs(shares[c].Data, 3)
			if err != nil {
				t.Fatal(err)
			}
			xi := new(big.Int).Mul(parts[0], parts[0])
			xi.Mod(xi, scheme.N)
			shares[c].Data = encodeBigs(xi, parts[1], parts[2])
			shares[c].Aux = nil // keep the challenge binding parseable
		}
		bad := scheme.BatchVerifyShares(msg, shares)
		if !reflect.DeepEqual(bad, culprits) {
			t.Fatalf("culprits %v: batch flagged %v", culprits, bad)
		}
	}
}

// TestRSABatchForgedCommitments covers Aux-carrying forgeries: shares
// whose carried commitments disagree with the challenge or equations.
func TestRSABatchForgedCommitments(t *testing.T) {
	msg := []byte("batch message")
	scheme, shares := batchScheme(t, msg)
	// Swapped commitments break the challenge binding.
	aux, err := decodeBigs(shares[1].Aux, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares[1].Aux = encodeBigs(aux[1], aux[0])
	// A bumped response breaks the folded equations.
	parts, err := decodeBigs(shares[4].Data, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := new(big.Int).Add(parts[2], big.NewInt(1))
	shares[4].Data = encodeBigs(parts[0], parts[1], z)
	// Malformed Aux encoding.
	shares[5].Aux = []byte{0, 0, 0}
	bad := scheme.BatchVerifyShares(msg, shares)
	if !reflect.DeepEqual(bad, []int{1, 4, 5}) {
		t.Fatalf("forged batch flagged %v", bad)
	}
}

// TestRSABatchLegacyShares strips Aux from a subset — the shape of
// shares from pre-batching peers — and checks the per-share fallback.
func TestRSABatchLegacyShares(t *testing.T) {
	msg := []byte("batch message")
	scheme, shares := batchScheme(t, msg)
	shares[2].Aux = nil
	shares[5].Aux = nil
	if bad := scheme.BatchVerifyShares(msg, shares); bad != nil {
		t.Fatalf("legacy-mixed valid batch flagged %v", bad)
	}
	parts, err := decodeBigs(shares[5].Data, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares[5].Data = encodeBigs(parts[0], parts[1], new(big.Int).Add(parts[2], big.NewInt(1)))
	if bad := scheme.BatchVerifyShares(msg, shares); !reflect.DeepEqual(bad, []int{5}) {
		t.Fatalf("bad legacy share: batch flagged %v", bad)
	}
}

// TestRSABatchMatchesVerifyShare cross-checks the batch verdicts
// against per-share VerifyShare over mixed corruption patterns. The
// one permitted divergence — a proof off by a square root of unity
// passing the squared batch test — cannot be produced by the
// corruptions here (they perturb values, not order-2 components).
func TestRSABatchMatchesVerifyShare(t *testing.T) {
	msg := []byte("batch message")
	for trial := 0; trial < 4; trial++ {
		scheme, shares := batchScheme(t, msg)
		for i := range shares {
			switch (trial + i) % 3 {
			case 1:
				parts, err := decodeBigs(shares[i].Data, 3)
				if err != nil {
					t.Fatal(err)
				}
				z := new(big.Int).Add(parts[2], big.NewInt(1))
				shares[i].Data = encodeBigs(parts[0], parts[1], z)
			}
		}
		var want []int
		for i, sh := range shares {
			if scheme.VerifyShare(msg, sh) != nil {
				want = append(want, i)
			}
		}
		got := scheme.BatchVerifyShares(msg, shares)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batch flagged %v, per-share %v", trial, got, want)
		}
	}
}

// TestRSABatchSharesStillCombine checks end-to-end compatibility: the
// Aux-carrying shares pass strict VerifyShare, survive a gob-style
// Aux strip, and combine into a signature that verifies.
func TestRSABatchSharesStillCombine(t *testing.T) {
	msg := []byte("batch message")
	scheme, shares := batchScheme(t, msg)
	for _, sh := range shares {
		if err := scheme.VerifyShare(msg, sh); err != nil {
			t.Fatalf("party %d: %v", sh.Party, err)
		}
	}
	sig, err := scheme.Combine(msg, shares[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := scheme.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRSABatchVerify compares k per-share verifications against
// one folded batch check (EXPERIMENTS.md).
func BenchmarkRSABatchVerify(b *testing.B) {
	msg := []byte("benchmark message")
	scheme, shares := batchScheme(b, msg)
	for _, k := range []int{4, 7} {
		batch := shares[:k]
		// Warm the fixed-base tables outside the timed loops.
		if bad := scheme.BatchVerifyShares(msg, batch); bad != nil {
			b.Fatal("valid batch rejected")
		}
		b.Run(fmt.Sprintf("k=%d/pershare", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sh := range batch {
					if err := scheme.VerifyShare(msg, sh); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/batch", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bad := scheme.BatchVerifyShares(msg, batch); bad != nil {
					b.Fatal("valid batch rejected")
				}
			}
		})
	}
}
