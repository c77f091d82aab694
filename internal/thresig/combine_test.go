package thresig

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sintra/internal/adversary"
)

// TestCombineHelper drives the package-level Combine over both schemes:
// culprits among the shares it combines are named and skipped (for RSA,
// as far as the shares at hand allow: see unnamed), shares it never
// needed stay unchecked, and the scheme's opening rule, duplicate
// and range checks hold as they do for Scheme.Combine.
func TestCombineHelper(t *testing.T) {
	msg := []byte("combine message")
	schemes := []struct {
		name string
		k    int // parties 0..k-1 are a minimal sufficient set
		deal func(t *testing.T) (Scheme, []*SecretKey)
	}{
		{"rsa", 4, func(t *testing.T) (Scheme, []*SecretKey) {
			p, q, _ := TestSafePrimes256()
			s, keys, err := NewRSAScheme("combine-test", p, q, 7, 4, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			return s, keys
		}},
		{"cert", 5, func(t *testing.T) (Scheme, []*SecretKey) {
			return newTestCert(t, adversary.MustThreshold(7, 2), RuleQuorum)
		}},
	}
	cases := []struct {
		name    string
		build   func(good, wrong []Share, k int) []Share
		wantErr error
		wantBad []int
		// unnamed: RSA names no culprit here. Its shares carry no
		// proof, and a well-formed share is named only against a
		// consistent set of 2(K−1) = 6 shares, which these cases, with
		// K−1 to K+1 honest shares, do not hold (DESIGN.md,
		// substitution 9). Malformed shares are named at once.
		unnamed bool
	}{
		{
			// The second share is a valid share on another message:
			// well-formed, proof consistent, wrong here.
			name: "invalid share among the first K",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], wrong[1]}, good[2:k+1]...)
			},
			wantBad: []int{1},
			unnamed: true,
		},
		{
			name: "t = 2 wrong shares arrive first",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{wrong[0], wrong[1]}, good[2:k+2]...)
			},
			wantBad: []int{0, 1},
			unnamed: true,
		},
		{
			name: "a wrong x_i with a 128 KiB challenge among the first K",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], hugeChallenge(wrong[1])}, good[2:k+1]...)
			},
			wantBad: []int{1},
		},
		{
			name: "invalid share after the first K stays unchecked",
			build: func(good, wrong []Share, k int) []Share {
				return append(append([]Share{}, good[:k]...), wrong[k])
			},
		},
		{
			name: "fewer than K valid shares",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], wrong[1]}, good[2:k]...)
			},
			wantErr: ErrInsufficient,
			wantBad: []int{1},
			unnamed: true,
		},
		{
			name: "duplicate parties are ignored",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], good[0]}, good[1:k]...)
			},
		},
		{
			name: "duplicates do not make K",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], good[0]}, good[1:k-1]...)
			},
			wantErr: ErrInsufficient,
		},
		{
			name: "out-of-range party is rejected",
			build: func(good, wrong []Share, k int) []Share {
				out := append([]Share{}, good[:k]...)
				out[0].Party = 99
				return out
			},
			wantErr: ErrInsufficient,
			wantBad: []int{0},
		},
	}
	for _, sc := range schemes {
		s, keys := sc.deal(t)
		all := make([]int, len(keys))
		for i := range all {
			all[i] = i
		}
		good := signAll(t, s, keys, msg, all)
		wrong := signAll(t, s, keys, []byte("another message"), all)
		for _, c := range cases {
			t.Run(sc.name+"/"+c.name, func(t *testing.T) {
				sig, bad, err := Combine(s, msg, c.build(good, wrong, sc.k))
				want := c.wantBad
				if c.unnamed && sc.name == "rsa" {
					want = nil
				}
				if !reflect.DeepEqual(bad, want) {
					t.Errorf("culprits %v, want %v", bad, want)
				}
				if c.wantErr != nil {
					if !errors.Is(err, c.wantErr) || sig != nil {
						t.Fatalf("got signature %v, err %v; want err %v", sig != nil, err, c.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Verify(msg, sig); err != nil {
					t.Fatalf("combined signature does not verify: %v", err)
				}
			})
		}
	}
}

// hugeChallenge returns sh with 128 KiB appended to its data, which is
// then neither one encoded value (RSA) nor one signature (certificate).
func hugeChallenge(sh Share) Share {
	return Share{Party: sh.Party, Data: append(append([]byte(nil), sh.Data...), bytes.Repeat([]byte{0xff}, 128<<10)...)}
}

// BenchmarkRSACombine prices Combine at n = 3t+1, K = k = t+1: on k
// honest shares (one combine), and on t wrong shares first, then the
// 2t+1 honest ones: the first combine fails, the K-subsets of the first
// 2t+1 are tried until the honest one verifies, and every other share
// is tested once, so that the wrong ones are named.
func BenchmarkRSACombine(b *testing.B) {
	msg := []byte("benchmark message")
	p, q, _ := TestSafePrimes256()
	for _, k := range []int{2, 3, 5} {
		n := 3*k - 2
		s, keys, err := NewRSAScheme("bench", p, q, n, k, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		shares := signAll(b, s, keys, msg, all)
		b.Run(fmt.Sprintf("k=%d/honest", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, bad, err := Combine(s, msg, shares[k-1:2*k-1]); err != nil || bad != nil {
					b.Fatal(err, bad)
				}
			}
		})
		culprits := append(signAll(b, s, keys, []byte("another message"), all[:k-1]), shares[k-1:]...)
		b.Run(fmt.Sprintf("k=%d/t-culprits-first", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, bad, err := Combine(s, msg, culprits); err != nil || len(bad) != k-1 {
					b.Fatal(err, bad)
				}
			}
		})
	}
}
