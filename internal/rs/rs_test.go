package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"sintra/internal/merkle"
)

// subsets enumerates all k-element subsets of 0..n-1.
func subsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// TestAnyKOfNReconstructs is the core property: for every k-subset of
// the n shards, reconstruction recovers the exact payload.
func TestAnyKOfNReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ k, m int }{{1, 2}, {2, 2}, {3, 4}, {4, 3}, {5, 2}} {
		c, err := New(cfg.k, cfg.m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", cfg.k, cfg.m, err)
		}
		for _, size := range []int{0, 1, cfg.k - 1, cfg.k, cfg.k + 1, 300, 1023} {
			if size < 0 {
				continue
			}
			payload := make([]byte, size)
			rng.Read(payload)
			shards, err := c.Encode(c.Split(payload))
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			for _, keep := range subsets(c.N(), c.k) {
				partial := make([][]byte, c.N())
				for _, i := range keep {
					partial[i] = shards[i]
				}
				data, err := c.Reconstruct(partial)
				if err != nil {
					t.Fatalf("k=%d m=%d size=%d keep=%v: %v", cfg.k, cfg.m, size, keep, err)
				}
				got, err := c.Join(data, size)
				if err != nil {
					t.Fatalf("Join: %v", err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("k=%d m=%d size=%d keep=%v: payload mismatch", cfg.k, cfg.m, size, keep)
				}
			}
		}
	}
}

// TestReencodeMatches: reconstructing from parity-heavy subsets and
// re-encoding reproduces the identical shard vector — the consistency
// check coded broadcast relies on.
func TestReencodeMatches(t *testing.T) {
	c, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 500)
	rand.New(rand.NewSource(7)).Read(payload)
	shards, _ := c.Encode(c.Split(payload))
	partial := make([][]byte, c.N())
	for _, i := range []int{4, 5, 6} { // parity only
		partial[i] = shards[i]
	}
	data, err := c.Reconstruct(partial)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], again[i]) {
			t.Fatalf("shard %d differs after reconstruct+re-encode", i)
		}
	}
}

// TestCorruptedShardDetected: flipping any byte of any shard makes its
// Merkle branch verification fail, and an honest branch never fails.
func TestCorruptedShardDetected(t *testing.T) {
	c, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 700)
	rand.New(rand.NewSource(3)).Read(payload)
	shards, _ := c.Encode(c.Split(payload))
	tree := merkle.NewTree(shards)
	root := tree.Root()
	for i, s := range shards {
		if !merkle.VerifyBranch(root, i, len(shards), s, tree.Branch(i)) {
			t.Fatalf("honest branch %d rejected", i)
		}
		for _, pos := range []int{0, len(s) / 2, len(s) - 1} {
			bad := append([]byte(nil), s...)
			bad[pos] ^= 0x40
			if merkle.VerifyBranch(root, i, len(shards), bad, tree.Branch(i)) {
				t.Fatalf("corrupted shard %d (byte %d) accepted", i, pos)
			}
		}
		// A valid fragment presented at the wrong index must also fail.
		wrong := (i + 1) % len(shards)
		if merkle.VerifyBranch(root, wrong, len(shards), s, tree.Branch(i)) {
			t.Fatalf("shard %d accepted at index %d", i, wrong)
		}
	}
}

// TestJoinRejectsDirtyPadding: a shard set whose padding bytes are not
// zero (an inconsistent declared length) is rejected.
func TestJoinRejectsDirtyPadding(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := c.Split([]byte("hello world"))
	// Claim a shorter payload so real bytes land in the padding region.
	if _, err := c.Join(data, 4); err == nil {
		t.Fatal("Join accepted nonzero padding")
	}
	if got, err := c.Join(data, 11); err != nil || string(got) != "hello world" {
		t.Fatalf("Join honest: %q %v", got, err)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, cfg := range []struct{ k, m int }{{0, 1}, {-1, 2}, {3, -1}, {200, 100}} {
		if _, err := New(cfg.k, cfg.m); err == nil {
			t.Fatalf("New(%d,%d) accepted", cfg.k, cfg.m)
		}
	}
	if _, err := New(128, 127); err != nil {
		t.Fatalf("New(128,127): %v", err)
	}
}

func TestReconstructErrors(t *testing.T) {
	c, _ := New(3, 2)
	shards, _ := c.Encode(c.Split([]byte("payload bytes here")))
	// Too few shards.
	partial := make([][]byte, c.N())
	partial[0], partial[3] = shards[0], shards[3]
	if _, err := c.Reconstruct(partial); err == nil {
		t.Fatal("accepted k-1 shards")
	}
	// Ragged shards.
	partial[1] = shards[1][:len(shards[1])-1]
	if _, err := c.Reconstruct(partial); err == nil {
		t.Fatal("accepted ragged shards")
	}
	// Wrong slot count.
	if _, err := c.Reconstruct(shards[:3]); err == nil {
		t.Fatal("accepted short slot vector")
	}
}

func BenchmarkEncode64KiB(b *testing.B) {
	c, _ := New(3, 4)
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(payload)
	data := c.Split(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct64KiB(b *testing.B) {
	c, _ := New(3, 4)
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(payload)
	shards, _ := c.Encode(c.Split(payload))
	partial := make([][]byte, c.N())
	for _, i := range []int{1, 4, 6} {
		partial[i] = shards[i]
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reconstruct(partial); err != nil {
			b.Fatal(err)
		}
	}
}
