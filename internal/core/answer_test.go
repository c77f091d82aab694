package core

import (
	"crypto/rand"
	"fmt"
	"math/bits"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/deal"
	"sintra/internal/merkle"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// signedRound is one ordered round of three answers as a client would
// hand them out: the combined service signature on the round's root and
// each answer's proof (Answer.Signature).
func signedRound(tb testing.TB) (pub *deal.Public, ids [][16]byte, results [][]byte, sigs [][]byte) {
	tb.Helper()
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(tb, st, testutil.Options{Corrupted: []int{0, 1, 2, 3}})
	var leaves [][]byte
	for k := 0; k < 3; k++ {
		ids = append(ids, [16]byte{byte(k + 1)})
		results = append(results, []byte(fmt.Sprintf("result %d", k)))
		leaves = append(leaves, answerStatement("test", ids[k], results[k]))
	}
	tree := merkle.NewTree(leaves)
	stmt := rootStatement("test", len(leaves), tree.Root())
	var shares []thresig.Share
	for _, i := range []int{0, 2} {
		sh, err := c.Pub.AnswerSig().SignShare(c.Secrets[i].SigAnswer, stmt, rand.Reader)
		if err != nil {
			tb.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, _, err := thresig.Combine(c.Pub.AnswerSig(), stmt, shares)
	if err != nil {
		tb.Fatal(err)
	}
	for k := range leaves {
		sigs = append(sigs, wire.MustMarshalBody(answerProof{Sig: sig, Index: k, Count: len(leaves), Branch: tree.Branch(k)}))
	}
	return c.Pub, ids, results, sigs
}

// TestVerifyAnswerInRound: every answer of a multi-request round verifies
// under its own proof, and no proof carries over to another answer or to
// another place in the tree.
func TestVerifyAnswerInRound(t *testing.T) {
	pub, ids, results, sigs := signedRound(t)
	for k := range sigs {
		if err := VerifyAnswer(pub, "test", ids[k], results[k], sigs[k]); err != nil {
			t.Fatalf("answer %d: %v", k, err)
		}
	}
	var p answerProof
	if err := wire.UnmarshalBody(sigs[0], &p); err != nil {
		t.Fatal(err)
	}
	alter := func(f func(*answerProof)) []byte {
		q := p
		q.Branch = append([][32]byte(nil), p.Branch...)
		f(&q)
		return wire.MustMarshalBody(q)
	}
	for _, c := range []struct {
		name        string
		id          [16]byte
		result, sig []byte
	}{
		{"swapped signature", ids[0], results[0], sigs[1]},
		{"sibling's result", ids[0], results[1], sigs[0]},
		{"sibling's answer", ids[1], results[1], sigs[0]},
		{"changed index", ids[0], results[0], alter(func(q *answerProof) { q.Index = 1 })},
		// Index 0 folds the same way in a tree of three and of four leaves:
		// only the count in the signed statement tells them apart.
		{"changed count", ids[0], results[0], alter(func(q *answerProof) { q.Count = 4 })},
		{"truncated branch", ids[0], results[0], alter(func(q *answerProof) { q.Branch = q.Branch[:1] })},
		{"extended branch", ids[0], results[0], alter(func(q *answerProof) { q.Branch = append(q.Branch, [32]byte{}) })},
		{"truncated blob", ids[0], results[0], sigs[0][:len(sigs[0])-1]},
	} {
		if VerifyAnswer(pub, "test", c.id, c.result, c.sig) == nil {
			t.Errorf("%s verified", c.name)
		}
	}
}

// FuzzVerifyAnswer: any blob and result, against one round's request IDs,
// must be refused without a panic unless it is that request's genuine
// result. merkle.BranchRoot refuses a branch over merkle.MaxBranch hashes
// before hashing, so no blob costs more than that.
func FuzzVerifyAnswer(f *testing.F) {
	pub, ids, results, sigs := signedRound(f)
	for k := range sigs {
		f.Add(uint8(k), results[k], sigs[k])
	}
	f.Add(uint8(0), results[0], wire.MustMarshalBody(answerProof{Count: 1 << (bits.UintSize - 2), Branch: make([][32]byte, merkle.MaxBranch+1)}))
	f.Fuzz(func(t *testing.T, which uint8, result, sig []byte) {
		k := int(which) % len(ids)
		if VerifyAnswer(pub, "test", ids[k], result, sig) == nil && string(result) != string(results[k]) {
			t.Fatalf("request %d verified with result %q", k, result)
		}
	})
}
