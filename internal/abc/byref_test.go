package abc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/engine"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wal"
	"sintra/internal/wire"
)

func randomPayload(seed int64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func counterSum(c *testutil.Cluster, parties []int, name string) int64 {
	var sum int64
	for _, p := range parties {
		sum += c.Regs[p].Counter(name).Value()
	}
	return sum
}

// TestReferencedPayloadsPulledFromSubmitter: payloads over the threshold
// submitted at ONE party travel as digests; every other party pulls each
// of them from the proposer, and the total order comes out identical —
// with no erasure coding and no reliable broadcast involved.
func TestReferencedPayloadsPulledFromSubmitter(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	// rec records the fetch traffic: a list may also outrun a proposal, and
	// the proposal is fetched through the same messages.
	rec := &tap{Scheduler: netsim.NewRandomScheduler(21), match: func(m *wire.Message) bool {
		return m.Protocol == abc.Protocol && (m.Type == "FETCH" || m.Type == "PAYLOAD")
	}}
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: rec, Observe: true})
	parties := []int{0, 1, 2, 3}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		cfg.CodedThreshold = 1024
	})
	const total = 3
	sent := make([][]byte, total)
	for k := 0; k < total; k++ {
		sent[k] = randomPayload(int64(40+k), 4096)
		if err := h.insts[0].Broadcast(sent[k]); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 90*time.Second)
	h.assertSameOrder(t, parties, total)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, msg := range sent {
		found := false
		for _, p := range h.logs[0] {
			found = found || bytes.Equal(p, msg)
		}
		if !found {
			t.Fatal("submitted payload missing from the delivered log")
		}
	}
	if v := c.Regs[0].Counter("abc.coded.proposals").Value(); v < 1 {
		t.Fatalf("submitter never proposed by reference (abc.coded.proposals=%d)", v)
	}
	// Each of the three others needs each payload once; a list that
	// outruns the proposer's answer can make a replica ask the rest too.
	digests := make(map[[32]byte]bool)
	for _, msg := range sent {
		digests[sha256.Sum256(msg)] = true
	}
	served, asked := 0, 0
	for _, m := range rec.recorded() {
		var body struct{ Payload []byte }
		var ask struct{ Digest [32]byte }
		if m.Type == "PAYLOAD" && wire.UnmarshalBody(m.Payload, &body) == nil && digests[sha256.Sum256(body.Payload)] {
			served++
		}
		if m.Type == "FETCH" && m.From == 0 && wire.UnmarshalBody(m.Payload, &ask) == nil && digests[ask.Digest] {
			asked++
		}
	}
	if served < 3*total || served > 9*total {
		t.Fatalf("%d payloads served, want between %d and %d", served, 3*total, 9*total)
	}
	if asked != 0 {
		t.Fatalf("the holder of every payload sent %d FETCHes for them", asked)
	}
	// Any other FETCH is for a proposal a list outran. The submitter lacks
	// at most the n-1 = 3 others' proposals a round, and the whole cluster
	// is allowed no more proposal answers than that on top of the payloads.
	proposals := 3 * (h.insts[0].Round() - 1)
	if v := c.Regs[0].Counter("abc.fetch.sent").Value(); v > proposals {
		t.Fatalf("the submitter sent %d FETCHes for proposals, want at most %d", v, proposals)
	}
	if v := counterSum(c, parties, "abc.fetch.served"); v < 3*total || v > 9*total+proposals {
		t.Fatalf("abc.fetch.served = %d, want between %d and %d", v, 3*total, 9*total+proposals)
	}
	for _, name := range []string{"rs.encodes", "rbc.deliver", "abc.fetch.rejected"} {
		if v := counterSum(c, parties, name); v != 0 {
			t.Fatalf("%s = %d, want 0", name, v)
		}
	}
}

// TestReferencedMixedSubmitters: several parties submit payloads on both
// sides of the threshold in the same rounds — with different thresholds,
// which are local — and every party delivers the same history.
func TestReferencedMixedSubmitters(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 23, Observe: true})
	parties := []int{0, 1, 2, 3}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		cfg.CodedThreshold = 512 << cfg.Router.Self() // 512, 1024, 2048, 4096
	})
	rng := rand.New(rand.NewSource(41))
	total := 0
	shared := randomPayload(43, 1500) // inline at some parties, referenced at others
	for i := 0; i < 4; i++ {
		for k := 0; k < 2; k++ {
			msg := make([]byte, 300+rng.Intn(2048))
			rng.Read(msg)
			if err := h.insts[i].Broadcast(msg); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := h.insts[i].Broadcast(shared); err != nil {
			t.Fatal(err)
		}
	}
	total++
	h.waitLogs(t, parties, total, 120*time.Second)
	h.assertSameOrder(t, parties, total)
}

// TestByzantineReplicaCannotCensorLargeRequest: a corrupted replica sees
// every client request, so it can have bytes of its choosing ordered ahead
// of one. Here party 3 submits 132 bytes laid out as the first of ten
// 1 KiB frames of the 10 000-byte request party 0 submits next; a replica
// that reassembled frames after ordering would hold these bytes back and
// then drop the request. An ordered payload is never interpreted: both are
// applied verbatim everywhere, at consecutive sequence numbers.
func TestByzantineReplicaCannotCensorLargeRequest(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 22})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	request := randomPayload(42, 10_000)
	id := sha256.Sum256(request)
	forged := append([]byte("sntrCHK1"), id[:16]...)
	forged = binary.BigEndian.AppendUint32(forged, 0)  // frame index
	forged = binary.BigEndian.AppendUint32(forged, 10) // frame count
	forged = append(forged, request[:100]...)

	ordered := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(90 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			done := true
			for _, p := range parties {
				done = done && h.insts[p].Seq() >= want
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %d ordered payloads", want)
			}
		}
	}
	if err := h.insts[3].Broadcast(forged); err != nil {
		t.Fatal(err)
	}
	ordered(1)
	if err := h.insts[0].Broadcast(request); err != nil {
		t.Fatal(err)
	}
	ordered(2)
	h.waitLogs(t, parties, 2, 30*time.Second)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range parties {
		log := h.logs[p]
		if len(log) != 2 || !bytes.Equal(log[0], forged) || !bytes.Equal(log[1], request) {
			t.Fatalf("party %d applied %d payloads, want the %d-byte one and then the request", p, len(log), len(forged))
		}
	}
}

// byzantineProposer drives corrupted party 3: it can sign proposals with
// the party's real key and reads what the honest parties send it.
type byzantineProposer struct {
	t    *testing.T
	c    *testutil.Cluster
	ep   wire.Transport
	inst *abc.ABC // any honest instance: the signing statement is the same

	mu   sync.Mutex
	seen []wire.Message
}

func newByzantineProposer(t *testing.T, c *testutil.Cluster, inst *abc.ABC) *byzantineProposer {
	b := &byzantineProposer{t: t, c: c, ep: c.Net.Endpoint(3), inst: inst}
	go func() {
		for {
			m, ok := b.ep.Recv()
			if !ok {
				return
			}
			b.mu.Lock()
			b.seen = append(b.seen, m)
			b.mu.Unlock()
		}
	}()
	return b
}

func (b *byzantineProposer) received(match func(*wire.Message) bool) []wire.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []wire.Message
	for i := range b.seen {
		if match(&b.seen[i]) {
			out = append(out, b.seen[i])
		}
	}
	return out
}

// waitFor polls until match has seen want messages.
func (b *byzantineProposer) waitFor(want int, match func(*wire.Message) bool) []wire.Message {
	b.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if got := b.received(match); len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			b.t.Fatalf("corrupted party saw fewer than %d of the messages it waits for", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (b *byzantineProposer) propose(round int64, refs ...[]byte) abc.SignedProposal {
	p := abc.SignedProposal{Party: 3, Round: round}
	for _, payload := range refs {
		d := sha256.Sum256(payload)
		p.Refs = append(p.Refs, d[:]...)
	}
	b.inst.SignProposal(b.c.Secrets[3].Identity, &p)
	return p
}

func (b *byzantineProposer) send(to int, protocol, instance, msgType string, body any) {
	b.ep.Send(wire.Message{
		To: to, Protocol: protocol, Instance: instance,
		Type: msgType, Payload: wire.MustMarshalBody(body),
	})
}

func isType(protocol, msgType string) func(*wire.Message) bool {
	return func(m *wire.Message) bool { return m.Protocol == protocol && m.Type == msgType }
}

// TestUnheldReferenceNeverDecided: a corrupted proposer signs a proposal
// referencing a digest nobody holds, and pushes a list containing it into
// the round's agreement. The honest parties ask for the payload, never
// put the proposal into a list of their own, never sign the list — so it
// cannot be certified, let alone decided — and the round is not stalled.
func TestUnheldReferenceNeverDecided(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 37, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	ghost := b.propose(1, []byte("a payload nobody ever sees"))
	for _, to := range honest {
		b.send(to, abc.Protocol, "svc", "PROPOSAL", ghost)
	}
	const total = 3
	for k := 0; k < total; k++ {
		if err := h.insts[k].Broadcast([]byte{byte('a' + k)}); err != nil {
			t.Fatal(err)
		}
	}
	// The list: the ghost plus two honest round-1 proposals, c-broadcast
	// as party 3's agreement value.
	var list []abc.SignedProposal
	for _, m := range b.waitFor(2, isType(abc.Protocol, "PROPOSAL")) {
		var p abc.SignedProposal
		if err := wire.UnmarshalBody(m.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.Round == 1 && len(list) < 2 {
			list = append(list, p)
		}
	}
	mine := cbc.InstanceID(3, "m/svc/r1")
	for _, to := range honest {
		b.send(to, cbc.Protocol, mine, "SEND", struct{ Payload []byte }{abc.ListValue(append(list, ghost)...)})
	}

	h.waitLogs(t, honest, total, 120*time.Second)
	h.assertSameOrder(t, honest, total)
	if v := counterSum(c, honest, "abc.fetch.sent"); v < int64(len(honest)) {
		t.Fatalf("honest parties sent %d FETCHes for the unheld digest, want one each at least", v)
	}
	if v := counterSum(c, honest, "abc.coded.decides.deferred"); v != 0 {
		t.Fatalf("%d decides parked: a list referencing the unheld digest was decided", v)
	}
	if got := b.received(func(m *wire.Message) bool { return m.Protocol == cbc.Protocol && m.Instance == mine }); len(got) != 0 {
		t.Fatalf("honest parties answered the unverifiable list: %v", got[0].String())
	}
}

// TestSelectiveHolderCannotStall: the corrupted proposer answers the
// FETCH of ONE honest party only. That party may vouch for the proposal
// in its list; the others learn from the list that a holder exists, ask
// everyone, and get the payload from it — the round completes and the
// payload, once decided, is delivered by all.
func TestSelectiveHolderCannotStall(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 39, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	secret := randomPayload(44, 2000)
	for round := int64(1); round <= 3; round++ {
		p := b.propose(round, secret)
		for _, to := range honest {
			b.send(to, abc.Protocol, "svc", "PROPOSAL", p)
		}
	}
	go func() {
		// Answer party 0 and nobody else.
		b.waitFor(1, func(m *wire.Message) bool { return m.From == 0 && m.Protocol == abc.Protocol && m.Type == "FETCH" })
		b.send(0, abc.Protocol, "svc", "PAYLOAD", struct{ Payload []byte }{secret})
	}()
	const total = 6
	for k := 0; k < total; k++ {
		if err := h.insts[k%3].Broadcast([]byte{byte('a' + k)}); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, honest, total, 120*time.Second)
	h.assertSameOrder(t, honest, total)
}

// TestFetchServedOncePerDigest: a peer replaying FETCH gets one answer
// per digest; an answer nobody asked for is dropped and counted, and an
// undecodable one counts as malformed.
func TestFetchServedOncePerDigest(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 45, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarnessCfg(t, c, honest, func(cfg *abc.Config) { cfg.CodedThreshold = 512 })
	b := newByzantineProposer(t, c, h.insts[0])

	payloads := [][]byte{randomPayload(46, 3000), randomPayload(47, 3000)}
	for _, p := range payloads {
		if err := h.insts[0].Broadcast(p); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, honest, len(payloads), 90*time.Second)

	for i := 0; i < 5; i++ {
		for _, p := range payloads {
			b.send(0, abc.Protocol, "svc", "FETCH", struct{ Digest [32]byte }{sha256.Sum256(p)})
		}
	}
	b.send(0, abc.Protocol, "svc", "FETCH", struct{ Digest [32]byte }{sha256.Sum256([]byte("never submitted"))})
	b.send(1, abc.Protocol, "svc", "PAYLOAD", struct{ Payload []byte }{[]byte("nobody asked for this")})
	b.ep.Send(wire.Message{To: 1, Protocol: abc.Protocol, Instance: "svc", Type: "PAYLOAD", Payload: []byte{0xff, 0x01}})

	answers := b.waitFor(len(payloads), isType(abc.Protocol, "PAYLOAD"))
	deadline := time.Now().Add(30 * time.Second)
	for c.Regs[1].Counter("abc.fetch.rejected").Value() < 1 || c.Regs[1].Counter("router.malformed").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abc.fetch.rejected=%d router.malformed=%d at party 1, want 1 and 1",
				c.Regs[1].Counter("abc.fetch.rejected").Value(), c.Regs[1].Counter("router.malformed").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replayed FETCHes are all handled by now or will be ignored.
	time.Sleep(200 * time.Millisecond)
	answers = b.received(isType(abc.Protocol, "PAYLOAD"))
	if len(answers) != len(payloads) {
		t.Fatalf("five FETCHes for each of two digests got %d answers, want 2", len(answers))
	}
	for i, m := range answers {
		var body struct{ Payload []byte }
		if err := wire.UnmarshalBody(m.Payload, &body); err != nil || !(bytes.Equal(body.Payload, payloads[0]) || bytes.Equal(body.Payload, payloads[1])) {
			t.Fatalf("answer %d is not one of the payloads asked for", i)
		}
	}
}

// TestParkedDecideReleasedByBroadcastFetch: a decide reaches a party
// before the proposal it names, and the proposer is mute. The party parks
// the decide, asks everyone for the proposal — and, when the proposal
// carries its payload by reference, then for the payload — gets what it
// lacks from the parties that hold it, and delivers.
func TestParkedDecideReleasedByBroadcastFetch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seed       int64
		referenced bool
		fetches    int64 // one to each of the 3 others per missing digest
	}{
		{name: "inline", seed: 67, fetches: 3},
		{name: "referenced", seed: 49, referenced: true, fetches: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := adversary.MustThreshold(4, 1)
			c := testutil.NewCluster(t, st, testutil.Options{Seed: tc.seed, Observe: true, Corrupted: []int{3}})
			honest := []int{0, 1, 2}
			h := newHarness(t, c, honest)
			b := newByzantineProposer(t, c, h.insts[0])

			payload := randomPayload(50, 2000)
			proposal := b.signInline(1, string(payload))
			if tc.referenced {
				proposal = b.propose(1, payload)
			}
			for _, holder := range []int{0, 1} {
				c.Routers[holder].DoSync(func() {
					if tc.referenced {
						h.insts[holder].Hold(payload)
					}
					h.insts[holder].HoldProposal(proposal)
				})
			}
			value := abc.ListValue(proposal)
			c.Routers[2].DoSync(func() { h.insts[2].Decide(value) })

			h.waitLogs(t, []int{2}, 1, 60*time.Second)
			h.mu.Lock()
			got := h.logs[2][0]
			h.mu.Unlock()
			if !bytes.Equal(got, payload) {
				t.Fatal("party 2 delivered something other than the named proposal's payload")
			}
			if v := c.Regs[2].Counter("abc.coded.decides.deferred").Value(); v != 1 {
				t.Fatalf("abc.coded.decides.deferred = %d at party 2, want 1", v)
			}
			if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != tc.fetches {
				t.Fatalf("party 2 sent %d FETCHes, want %d", v, tc.fetches)
			}
			var round int64
			c.Routers[2].DoSync(func() { round = h.insts[2].Round() }) // after the delivering turn
			if round != 2 {
				t.Fatalf("party 2 is in round %d after the released decide, want 2", round)
			}
		})
	}
}

// signedEmpty is party's validly signed round proposal carrying nothing.
func (b *byzantineProposer) signedEmpty(party int, round int64) abc.SignedProposal {
	p := abc.SignedProposal{Party: party, Round: round}
	b.inst.SignProposal(b.c.Secrets[party].Identity, &p)
	return p
}

// TestEarlyListCannotWedgeDecide: the corrupted party shows party 2 a
// list whose proposals party 2 holds but one of which references a payload
// before any honest party holds it, then lets the others have the payload
// so that they decide the list. Party 2 asked only the list's author, who
// stays mute; the decide, behind which a quorum stands, asks the parties
// that hold the payload by then.
func TestEarlyListCannotWedgeDecide(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 57, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	payload := randomPayload(58, 2000)
	proposals := []abc.SignedProposal{b.signedEmpty(0, 1), b.signedEmpty(1, 1), b.propose(1, payload)}
	for _, holder := range honest {
		c.Routers[holder].DoSync(func() {
			for _, p := range proposals {
				h.insts[holder].HoldProposal(p)
			}
		})
	}
	value := abc.ListValue(proposals...)
	var valid bool
	c.Routers[2].DoSync(func() { valid = h.insts[2].ValidList(value, 3) })
	if valid {
		t.Fatal("party 2 accepted a list referencing a payload it does not hold")
	}
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 1 {
		t.Fatalf("party 2 sent %d FETCHes for the list, want one, to its author", v)
	}
	for _, holder := range []int{0, 1} {
		c.Routers[holder].DoSync(func() { h.insts[holder].Hold(payload) })
	}
	c.Routers[2].DoSync(func() { h.insts[2].Decide(value) })

	h.waitLogs(t, []int{2}, 1, 60*time.Second)
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 3 {
		t.Fatalf("party 2 sent %d FETCHes in all, want 3: the author, then the two others", v)
	}
	if v := counterSum(c, []int{0, 1}, "abc.fetch.served"); v < 1 {
		t.Fatal("party 2 delivered, yet neither holder counts an answer")
	}
}

// TestAskStartsAfreshEachRound: an ask that went out while nobody held
// the payload is not held against a later round. Party 2 asks everyone in
// round 1 and gets nothing; round 1 decides without the payload; in round
// 2 the others hold it, and a decide referencing it asks them again.
func TestAskStartsAfreshEachRound(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 59, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	payload := randomPayload(60, 2000)
	round1 := []abc.SignedProposal{b.signedEmpty(0, 1), b.signedEmpty(1, 1), b.propose(1, payload)}
	round2 := b.propose(2, payload)
	early := abc.ListValue(round1...)
	c.Routers[2].DoSync(func() {
		for _, p := range append(round1, round2) {
			h.insts[2].HoldProposal(p)
		}
		if h.insts[2].ValidList(early, -1) {
			t.Error("party 2 accepted a list referencing a payload it does not hold")
		}
		h.insts[2].Decide(abc.ListValue(round1[0]))
	})
	for _, holder := range []int{0, 1} {
		// The round-1 FETCH has to find the holder still empty-handed.
		waitCounter(t, c, holder, "router.recv.abc.FETCH", 1)
		c.Routers[holder].DoSync(func() { h.insts[holder].Hold(payload) })
	}
	c.Routers[2].DoSync(func() { h.insts[2].Decide(abc.ListValue(round2)) })

	h.waitLogs(t, []int{2}, 1, 60*time.Second)
	if v := c.Regs[2].Counter("abc.fetch.sent").Value(); v != 6 {
		t.Fatalf("party 2 sent %d FETCHes, want 3 in each of the two rounds", v)
	}
}

// TestOversizedProposalDropped: a validly signed proposal with more
// entries than the constant bound is dropped before anything is tracked
// or fetched for it.
func TestOversizedProposalDropped(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 51, Observe: true, Corrupted: []int{3}})
	honest := []int{0, 1, 2}
	h := newHarness(t, c, honest)
	b := newByzantineProposer(t, c, h.insts[0])

	huge := abc.SignedProposal{Party: 3, Round: 1, Refs: randomPayload(52, 32*(abc.MaxProposalEntries+1))}
	b.inst.SignProposal(c.Secrets[3].Identity, &huge)
	for _, to := range honest {
		b.send(to, abc.Protocol, "svc", "PROPOSAL", huge)
	}
	if err := h.insts[0].Broadcast([]byte("after the flood")); err != nil {
		t.Fatal(err)
	}
	h.waitLogs(t, honest, 1, 90*time.Second)
	if v := counterSum(c, honest, "abc.fetch.sent"); v != 0 {
		t.Fatalf("honest parties sent %d FETCHes for an oversized proposal", v)
	}
	for _, p := range honest {
		var size int
		c.Routers[p].DoSync(func() { size = h.insts[p].PayloadEntries() })
		if size > 1 {
			t.Fatalf("party %d tracks %d payload entries after an oversized proposal", p, size)
		}
	}
}

// tap records every delivered message that match accepts.
type tap struct {
	netsim.Scheduler
	match func(*wire.Message) bool
	mu    sync.Mutex
	seen  []wire.Message
}

func (s *tap) Next(pending []wire.Message) int {
	idx := s.Scheduler.Next(pending)
	if idx >= 0 && idx < len(pending) && s.match(&pending[idx]) {
		s.mu.Lock()
		s.seen = append(s.seen, pending[idx])
		s.mu.Unlock()
	}
	return idx
}

func (s *tap) recorded() []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Message(nil), s.seen...)
}

// TestRestartWithJournaledReferenceLostPayload: party 1 journals a
// by-reference proposal, crashes before the round completes and comes
// back from its journal with an empty store. It re-sends the identical
// proposal (never a second one), asks everyone for the payload it lost,
// gets it from the party that pulled it before the crash, and the round
// completes with the same deliveries everywhere.
func TestRestartWithJournaledReferenceLostPayload(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	// rec records every PROPOSAL party 1 puts on the wire.
	rec := &tap{Scheduler: netsim.NewRandomScheduler(53), match: func(m *wire.Message) bool {
		return m.From == 1 && m.To != 1 && m.Protocol == abc.Protocol && m.Type == "PROPOSAL"
	}}
	// Only party 0 starts with the cluster; the test runs the rest.
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: rec, Observe: true, Corrupted: []int{1, 2, 3}})
	dir := t.TempDir()
	var wg sync.WaitGroup
	t.Cleanup(func() { c.Stop(); wg.Wait() })
	start := func(i int, journaled bool) (*engine.Router, *wal.Journal) {
		r := engine.NewRouter(c.Net.Endpoint(i))
		var j *wal.Journal
		if journaled {
			var err error
			if j, err = wal.OpenJournal(dir, wal.Options{NoSync: true}); err != nil {
				t.Fatal(err)
			}
			r.SetJournal(j)
		}
		c.Routers[i] = r
		wg.Add(1)
		go func() { defer wg.Done(); r.Run() }()
		return r, j
	}
	adjust := func(cfg *abc.Config) { cfg.CodedThreshold = 512 }

	// First life: party 1 submits, proposes by reference, journals it;
	// party 0 joins the round and pulls the payload. Two parties are no
	// quorum, so round 1 stays open.
	r1, j1 := start(1, true)
	h := newHarnessCfg(t, c, []int{0, 1}, adjust)
	payload := randomPayload(54, 3000)
	if err := h.insts[1].Broadcast(payload); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Regs[0].Counter("router.recv.abc.PAYLOAD").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("party 0 never pulled the referenced payload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = c.Net.Endpoint(1).Close()
	<-r1.Done()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life, and the two parties that were down so far.
	c.Net.Reopen(1)
	_, j2 := start(1, true)
	t.Cleanup(func() { _ = j2.Close() })
	if j2.Recovered() == 0 {
		t.Fatal("the journal recovered nothing")
	}
	start(2, false)
	start(3, false)
	second := newHarnessCfg(t, c, []int{1, 2, 3}, adjust)
	if err := second.insts[2].Broadcast([]byte("wake the round up")); err != nil {
		t.Fatal(err)
	}

	// Round 1 completes at all four parties. Whether its decided list
	// took party 1's proposal is up to the agreement; if it did, the
	// payload precedes or follows the wake-up request identically
	// everywhere.
	all := []int{1, 2, 3}
	second.waitLogs(t, all, 1, 120*time.Second)
	h.waitLogs(t, []int{0}, 1, 60*time.Second)
	deadline = time.Now().Add(30 * time.Second)
	for h.insts[0].Round() < 2 || second.insts[1].Round() < 2 || second.insts[2].Round() < 2 || second.insts[3].Round() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("round 1 never completed everywhere")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.mu.Lock()
	first := append([][]byte(nil), h.logs[0]...)
	h.mu.Unlock()
	second.mu.Lock()
	for _, p := range all {
		if len(second.logs[p]) != len(first) {
			t.Fatalf("party %d delivered %d payloads in round 1, party 0 delivered %d", p, len(second.logs[p]), len(first))
		}
		for k := range first {
			if !bytes.Equal(second.logs[p][k], first[k]) {
				t.Fatalf("party 0 and party %d disagree at position %d", p, k)
			}
		}
	}
	second.mu.Unlock()
	t.Logf("round 1 delivered %d payloads", len(first))
	// The restarted party asked everyone and party 0 gave the payload back.
	deadline = time.Now().Add(30 * time.Second)
	for held := false; !held; time.Sleep(5 * time.Millisecond) {
		c.Routers[1].DoSync(func() { held = second.insts[1].Holds(payload) })
		if time.Now().After(deadline) {
			t.Fatal("the restarted party never got its payload back")
		}
	}
	round1, sends := make(map[string]bool), 0
	for _, m := range rec.recorded() {
		var p abc.SignedProposal
		if err := wire.UnmarshalBody(m.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.Round == 1 {
			round1[string(m.Payload)] = true
			sends++
		}
	}
	if len(round1) != 1 || sends < 6 {
		t.Fatalf("party 1 put %d different round-1 proposals on the wire in %d sends; want one proposal, sent to the 3 others in each life",
			len(round1), sends)
	}
}
