package abc_test

import (
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// The agreement value names proposals by the digest of their encoding;
// these tests pin how a party resolves a name it cannot resolve yet.

// sendOrder delivers messages in the order they were sent.
type sendOrder struct{}

func (sendOrder) Next([]wire.Message) int { return 0 }

// signInline is party 3's signed round proposal carrying payload inline.
func (b *byzantineProposer) signInline(round int64, payload string) abc.SignedProposal {
	p := abc.SignedProposal{Party: 3, Round: round, Batch: [][]byte{[]byte(payload)}}
	b.inst.SignProposal(b.c.Secrets[3].Identity, &p)
	return p
}

// waitCounter polls party p's counter until it reaches want.
func waitCounter(t *testing.T, c *testutil.Cluster, p int, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); c.Regs[p].Counter(name).Value() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("party %d: %s stayed below %d", p, name, want)
		}
	}
}

// TestListOutrunsProposal: a list names a proposal its receiver was never
// sent. The receiver asks the list's author, once, takes the answer and
// signs the list. Only party 2 runs atomic broadcast, so the round stays
// open for as long as the test needs it.
func TestListOutrunsProposal(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 63, Observe: true, Corrupted: []int{3}})
	h := newHarness(t, c, []int{2})
	b := newByzantineProposer(t, c, h.insts[2])

	e0, e1 := b.signedEmpty(0, 1), b.signedEmpty(1, 1)
	for from, p := range []abc.SignedProposal{e0, e1} {
		if err := c.Routers[from].Send(2, abc.Protocol, "svc", "PROPOSAL", p); err != nil {
			t.Fatal(err)
		}
	}
	// Party 2's own list, of e0, e1 and its own proposal, is out: its
	// agreement is running.
	b.waitFor(1, isType(cbc.Protocol, "SEND"))

	unsent := b.signedEmpty(3, 1)
	mine := cbc.InstanceID(3, "m/svc/r1")
	b.send(2, cbc.Protocol, mine, "SEND", struct{ Payload []byte }{abc.ListValue(e0, e1, unsent)})
	fetch := b.waitFor(1, isType(abc.Protocol, "FETCH"))[0]
	var ask struct{ Digest [32]byte }
	if err := wire.UnmarshalBody(fetch.Payload, &ask); err != nil || ask.Digest != abc.ProposalDigest(unsent) {
		t.Fatalf("party 2 asked for %x (%v), want the unsent proposal", ask.Digest, err)
	}
	b.send(2, abc.Protocol, "svc", "PAYLOAD", struct{ Payload []byte }{wire.MustMarshalBody(unsent)})
	b.waitFor(1, func(m *wire.Message) bool {
		return m.Protocol == cbc.Protocol && m.Instance == mine && m.Type == "SHARE"
	})
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 1 {
		t.Fatalf("party 2 sent %d FETCHes, want one, to the list's author", v)
	}
}

// TestEquivocatingProposerOneOrder: the corrupted party signs two round-1
// proposals and sends one to party 0, the other to parties 1 and 2. Each
// party's list names the version it was sent, so whichever list is
// certified, a party sent the other version fetched it to sign. Exactly
// one version is delivered, at the same place everywhere.
func TestEquivocatingProposerOneOrder(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: sendOrder{}, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	b.send(0, abc.Protocol, "svc", "PROPOSAL", b.signInline(1, "version A"))
	for _, to := range []int{1, 2} {
		b.send(to, abc.Protocol, "svc", "PROPOSAL", b.signInline(1, "version B"))
	}
	const total = 3
	for k := 0; k < total; k++ {
		if err := h.insts[k].Broadcast([]byte{byte('a' + k)}); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, honest, total+1, 120*time.Second)
	h.assertSameOrder(t, honest, total+1)
	h.mu.Lock()
	versions := 0
	for _, p := range h.logs[0] {
		if string(p) == "version A" || string(p) == "version B" {
			versions++
		}
	}
	h.mu.Unlock()
	if versions != 1 {
		t.Fatalf("%d versions of the equivocated proposal delivered, want 1", versions)
	}
	if v := counterSum(c, honest, "abc.fetch.sent"); v < 1 {
		t.Fatal("a list naming the other version was signed without fetching it")
	}
}

// TestListRejectedBeforeFetch: a list of more than n entries or with a
// repeated digest is rejected without a FETCH; a named "proposal" fetched
// from the author that is of another round or badly signed is rejected
// once it arrives.
func TestListRejectedBeforeFetch(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 65, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	e0, e1 := b.signedEmpty(0, 1), b.signedEmpty(1, 1)
	long := make([][32]byte, 5)
	for i := range long {
		long[i][0] = byte(i + 1)
	}
	c.Routers[2].DoSync(func() {
		h.insts[2].HoldProposal(e0)
		h.insts[2].HoldProposal(e1)
		if h.insts[2].ValidList(abc.DigestList(long...), 3) {
			t.Error("a list of n+1 entries passed")
		}
		if h.insts[2].ValidList(abc.ListValue(e0, e1, e0), 3) {
			t.Error("a list naming one proposal twice passed")
		}
	})
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 0 {
		t.Fatalf("party 2 sent %d FETCHes for lists it can reject as they are", v)
	}

	otherRound := b.signedEmpty(3, 2)
	badSig := b.signedEmpty(3, 1)
	badSig.Sig = []byte("not party 3's signature")
	for i, bad := range []abc.SignedProposal{otherRound, badSig} {
		value := abc.ListValue(e0, e1, bad)
		c.Routers[2].DoSync(func() {
			if h.insts[2].ValidList(value, 3) {
				t.Error("a list naming a proposal party 2 lacks passed")
			}
		})
		b.waitFor(i+1, isType(abc.Protocol, "FETCH"))
		b.send(2, abc.Protocol, "svc", "PAYLOAD", struct{ Payload []byte }{wire.MustMarshalBody(bad)})
		waitCounter(t, c, 2, "router.recv.abc.PAYLOAD", int64(i+1))
		c.Routers[2].DoSync(func() {
			if h.insts[2].ValidList(value, 3) {
				t.Errorf("case %d: a list naming a fetched proposal that is not a round-1 one passed", i)
			}
		})
	}
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 2 {
		t.Fatalf("party 2 sent %d FETCHes, want one to the author for each fetched proposal", v)
	}
}
