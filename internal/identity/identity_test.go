package identity_test

import (
	"crypto/rand"
	"sync"
	"testing"

	"sintra/internal/identity"
)

func TestSignVerify(t *testing.T) {
	reg, keys, err := identity.Generate(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if reg.N() != 3 {
		t.Fatalf("N = %d", reg.N())
	}
	msg := []byte("proposal bytes")
	sig := keys[1].Sign("abc-prop", msg)
	if err := reg.Verify(1, "abc-prop", msg, sig); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	reg, keys, err := identity.Generate(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	sig := keys[0].Sign("d", msg)
	if err := reg.Verify(1, "d", msg, sig); err == nil {
		t.Fatal("signature verified under wrong party")
	}
	if err := reg.Verify(0, "other-domain", msg, sig); err == nil {
		t.Fatal("signature transferred across domains")
	}
	if err := reg.Verify(0, "d", []byte("n"), sig); err == nil {
		t.Fatal("signature verified for wrong message")
	}
	bad := append([]byte(nil), sig...)
	bad[3] ^= 1
	if err := reg.Verify(0, "d", msg, bad); err == nil {
		t.Fatal("mangled signature verified")
	}
	if err := reg.Verify(0, "d", msg, sig[:10]); err == nil {
		t.Fatal("truncated signature verified")
	}
	if err := reg.Verify(9, "d", msg, sig); err == nil {
		t.Fatal("out-of-range party verified")
	}
	if err := reg.Verify(-1, "d", msg, sig); err == nil {
		t.Fatal("negative party verified")
	}
}

func TestKeysAreDistinct(t *testing.T) {
	reg, keys, err := identity.Generate(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message")
	seen := make(map[string]bool)
	for i, k := range keys {
		sig := k.Sign("d", msg)
		if seen[string(sig)] {
			t.Fatal("two parties produced identical signatures")
		}
		seen[string(sig)] = true
		if err := reg.Verify(i, "d", msg, sig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSignKeepsKey: the private key derived on first use is kept, is safe
// to share between goroutines, and follows a replaced seed.
func TestSignKeepsKey(t *testing.T) {
	reg, keys, err := identity.Generate(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reg.Verify(0, "d", msg, keys[0].Sign("d", msg)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	keys[0].Seed = keys[1].Seed
	if err := reg.Verify(1, "d", msg, keys[0].Sign("d", msg)); err != nil {
		t.Fatalf("a replaced seed signed with the kept key: %v", err)
	}
}

// TestVerifyUnderBadKey: a registered key that is short or no curve point
// makes every check under it fail with ErrBadSignature (crypto/ed25519
// panics on the first); checks under the other keys are unaffected.
func TestVerifyUnderBadKey(t *testing.T) {
	reg, keys, err := identity.Generate(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	reg.PubKeys[1] = reg.PubKeys[1][:31]
	reg.PubKeys[2] = make([]byte, 32)
	reg.PubKeys[2][0] = 2 // y = 2: no curve point
	for _, p := range []int{1, 2} {
		if err := reg.Verify(p, "d", msg, keys[p].Sign("d", msg)); err != identity.ErrBadSignature {
			t.Fatalf("party %d under a bad key: %v", p, err)
		}
	}
	if err := reg.Verify(0, "d", msg, keys[0].Sign("d", msg)); err != nil {
		t.Fatal(err)
	}
}
