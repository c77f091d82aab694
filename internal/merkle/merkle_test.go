package merkle

import (
	"math/bits"
	"testing"
)

// TestMerkleShapes covers odd leaf counts, single leaves, and branch
// length truncation.
func TestMerkleShapes(t *testing.T) {
	for n := 1; n <= 12; n++ {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte{byte(i), byte(n)}
		}
		tree := NewTree(leaves)
		root := tree.Root()
		for i := range leaves {
			br := tree.Branch(i)
			if !VerifyBranch(root, i, n, leaves[i], br) {
				t.Fatalf("n=%d leaf %d rejected", n, i)
			}
			if len(br) > 0 && VerifyBranch(root, i, n, leaves[i], br[:len(br)-1]) {
				t.Fatalf("n=%d leaf %d accepted with truncated branch", n, i)
			}
			if VerifyBranch(root, i, n, leaves[i], append(append([][32]byte(nil), br...), [32]byte{})) {
				t.Fatalf("n=%d leaf %d accepted with extended branch", n, i)
			}
		}
		if VerifyBranch(root, n, n, leaves[0], tree.Branch(0)) {
			t.Fatalf("n=%d out-of-range index accepted", n)
		}
	}
}

// TestBranchRootBounded: BranchRoot folds an honest branch to the root,
// refuses a count or index out of range, and refuses a branch longer than
// MaxBranch however deep the claimed tree.
func TestBranchRootBounded(t *testing.T) {
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	tree := NewTree(leaves)
	if got, ok := BranchRoot(2, 3, leaves[2], tree.Branch(2)); !ok || got != tree.Root() {
		t.Fatal("honest branch does not fold to the root")
	}
	for _, c := range []struct{ i, n int }{{-1, 3}, {3, 3}, {0, 0}} {
		if _, ok := BranchRoot(c.i, c.n, leaves[0], tree.Branch(0)); ok {
			t.Fatalf("index %d of %d folded", c.i, c.n)
		}
	}
	long := make([][32]byte, MaxBranch+1)
	const depth = bits.UintSize - 2 // the deepest tree an int leaf count spans
	if _, ok := BranchRoot(0, 1<<depth, leaves[0], long); ok {
		t.Fatal("a branch over MaxBranch folded")
	}
	if _, ok := BranchRoot(0, 1<<depth, leaves[0], long[:depth]); !ok {
		t.Fatalf("a 2^%d-leaf branch of %d hashes did not fold", depth, depth)
	}
}
