package thresig

import (
	"crypto/rand"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sintra/internal/adversary"
)

// TestCombineHelper drives the package-level Combine over both schemes:
// culprits among the shares it combines are named and skipped, shares it
// never needed stay unchecked, and the scheme's opening rule, duplicate
// and range checks hold as they do for Scheme.Combine.
func TestCombineHelper(t *testing.T) {
	msg := []byte("combine message")
	schemes := []struct {
		name string
		k    int // parties 0..k-1 are a minimal sufficient set
		deal func(t *testing.T) (Scheme, []*SecretKey)
	}{
		{"rsa", 4, func(t *testing.T) (Scheme, []*SecretKey) {
			p, q := TestSafePrimes256()
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
	}{
		{
			// The second share is a valid share on another message:
			// well-formed, proof consistent, wrong here.
			name: "invalid share among the first K",
			build: func(good, wrong []Share, k int) []Share {
				return append([]Share{good[0], wrong[1]}, good[2:k+1]...)
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
				if !reflect.DeepEqual(bad, c.wantBad) {
					t.Errorf("culprits %v, want %v", bad, c.wantBad)
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

// BenchmarkRSACombine compares the two ways to turn k honest shares into
// a signature: verify every share's proof and then combine, or combine
// first and rely on the check of the combined signature (Combine).
func BenchmarkRSACombine(b *testing.B) {
	msg := []byte("benchmark message")
	p, q := TestSafePrimes256()
	for _, k := range []int{2, 3, 5} {
		s, keys, err := NewRSAScheme("bench", p, q, 7, k, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		parties := make([]int, k)
		for i := range parties {
			parties[i] = i
		}
		shares := signAll(b, s, keys, msg, parties)
		b.Run(fmt.Sprintf("k=%d/verify-then-combine", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sh := range shares {
					if err := s.VerifyShare(msg, sh); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Combine(msg, shares); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/combine-first", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, bad, err := Combine(s, msg, shares); err != nil || bad != nil {
					b.Fatal(err, bad)
				}
			}
		})
	}
}
