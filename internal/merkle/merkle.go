// Package merkle is the one Merkle tree of the stack: the coded broadcast
// commits to its fragments with it (rbc), and a replica commits to a
// round's service answers with it (core), so one threshold signature on
// the root covers every answer and each client checks its own with a
// logarithmic branch. Leaf and interior hashes are domain-separated so an
// interior node can never be replayed as a leaf.
package merkle

import "crypto/sha256"

// MaxBranch caps the branch a verifier folds: no tree this stack builds is
// that deep, and the cap bounds the hashing an adversarial branch costs.
const MaxBranch = 64

// Tree is a Merkle tree over a fixed ordered leaf set. A level with an
// odd number of nodes promotes its last node unchanged; with the leaf
// count fixed by the protocol, the shape is unambiguous to every verifier.
type Tree struct {
	levels [][][32]byte // levels[0] = leaf hashes, last level = root
}

func leafHash(leaf []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(leaf)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func nodeHash(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// NewTree builds the tree over the given leaves (at least one).
func NewTree(leaves [][]byte) *Tree {
	level := make([][32]byte, len(leaves))
	for i, l := range leaves {
		level[i] = leafHash(l)
	}
	t := &Tree{levels: [][][32]byte{level}}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Root returns the root commitment.
func (t *Tree) Root() [32]byte {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Branch returns the authentication path for leaf i: the sibling hash at
// each level that has one (levels where the node is a promoted odd tail
// contribute nothing).
func (t *Tree) Branch(i int) [][32]byte {
	var branch [][32]byte
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := i ^ 1
		if sib < len(level) {
			branch = append(branch, level[sib])
		}
		i /= 2
	}
	return branch
}

// BranchRoot folds leaf at index i of an n-leaf tree up its branch and
// returns the root it implies. It fails when i is out of range or the
// branch has not exactly one hash per level at which the node has a
// sibling; a branch longer than MaxBranch fails before any hashing.
func BranchRoot(i, n int, leaf []byte, branch [][32]byte) ([32]byte, bool) {
	if i < 0 || i >= n || len(branch) > MaxBranch {
		return [32]byte{}, false
	}
	h := leafHash(leaf)
	for width := n; width > 1; width = (width + 1) / 2 {
		if sib := i ^ 1; sib < width {
			if len(branch) == 0 {
				return [32]byte{}, false
			}
			if i&1 == 0 {
				h = nodeHash(h, branch[0])
			} else {
				h = nodeHash(branch[0], h)
			}
			branch = branch[1:]
		}
		i /= 2
	}
	return h, len(branch) == 0
}

// VerifyBranch checks that leaf sits at index i of an n-leaf tree with
// the given root, using the authentication branch.
func VerifyBranch(root [32]byte, i, n int, leaf []byte, branch [][32]byte) bool {
	h, ok := BranchRoot(i, n, leaf, branch)
	return ok && h == root
}
