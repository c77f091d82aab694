package rbc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/faultsim"
	"sintra/internal/merkle"
	"sintra/internal/rbc"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// startCodedInstances wires one coded-capable RBC instance per party.
func startCodedInstances(c *testutil.Cluster, col *collector, sender int, tag string, threshold int, parties []int) map[int]*rbc.RBC {
	out := make(map[int]*rbc.RBC, len(parties))
	for _, i := range parties {
		out[i] = newRBC(rbc.Config{
			Router:         c.Routers[i],
			Struct:         c.Struct,
			Instance:       rbc.InstanceID(sender, tag),
			Sender:         sender,
			Deliver:        col.deliverFn(i),
			CodedThreshold: threshold,
		})
	}
	return out
}

// TestCodedBroadcastDelivers: above the threshold the sender disperses
// fragments instead of the payload, and every honest party reconstructs
// the identical bytes.
func TestCodedBroadcastDelivers(t *testing.T) {
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			st := adversary.MustThreshold(n, (n-1)/3)
			c := testutil.NewCluster(t, st, testutil.Options{Seed: 9, Observe: true})
			col := newCollector(n)
			insts := startCodedInstances(c, col, 0, "coded", 1024, allParties(n))
			msg := make([]byte, 48*1024)
			rand.New(rand.NewSource(int64(n))).Read(msg)
			if err := insts[0].Start(msg); err != nil {
				t.Fatal(err)
			}
			got := col.waitAll(t, allParties(n))
			for p, payload := range got {
				if !bytes.Equal(payload, msg) {
					t.Fatalf("party %d delivered wrong bytes", p)
				}
			}
			if v := c.Regs[0].Counter("rs.encodes").Value(); v < 1 {
				t.Fatalf("sender never erasure-coded (rs.encodes=%d)", v)
			}
			// Every party (including the sender, which holds only its own
			// fragment) reconstructs rather than receiving full payloads.
			for i := 0; i < n; i++ {
				if v := c.Regs[i].Counter("rbc.coded.reconstructs").Value(); v < 1 {
					t.Fatalf("party %d never reconstructed", i)
				}
			}
		})
	}
}

// TestCodedThresholdGatesPath: payloads under the threshold (or with the
// feature off) take the plain SEND/ECHO path.
func TestCodedThresholdGatesPath(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 10, Observe: true})
	col := newCollector(4)
	insts := startCodedInstances(c, col, 1, "small", 4096, allParties(4))
	msg := []byte("short payload stays plain")
	if err := insts[1].Start(msg); err != nil {
		t.Fatal(err)
	}
	got := col.waitAll(t, allParties(4))
	for _, p := range got {
		if !bytes.Equal(p, msg) {
			t.Fatal("wrong payload")
		}
	}
	if v := c.Regs[1].Counter("rs.encodes").Value(); v != 0 {
		t.Fatalf("sub-threshold payload was erasure-coded (rs.encodes=%d)", v)
	}
}

// fragLeafForTest mirrors the protocol's Merkle leaf preimage:
// uint64 payload length, uint32 fragment index, then the shard bytes.
func fragLeafForTest(payLen, index int, shard []byte) []byte {
	leaf := make([]byte, 12+len(shard))
	binary.BigEndian.PutUint64(leaf, uint64(payLen))
	binary.BigEndian.PutUint32(leaf[8:], uint32(index))
	copy(leaf[12:], shard)
	return leaf
}

type rawFrag struct {
	Root   [32]byte
	Index  int
	PayLen int
	Shard  []byte
	Branch [][32]byte
}

// TestCodedInconsistentSenderNoDelivery: a Byzantine sender commits to a
// Merkle tree over shards that are NOT a consistent codeword. Every
// fragment verifies individually, the echo quorum and READY amplification
// all fire — but reconstruction re-encodes, detects the root mismatch,
// and no honest party delivers anything.
func TestCodedInconsistentSenderNoDelivery(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 12, Observe: true, Corrupted: []int{0}})
	col := newCollector(4)
	startCodedInstances(c, col, 0, "byz", 1024, []int{1, 2, 3})

	// k = n-2t = 2: shard length for a 128-byte payload is 64. Four
	// independent random shards cannot be a codeword of any payload.
	const payLen = 128
	rng := rand.New(rand.NewSource(99))
	shards := make([][]byte, 4)
	leaves := make([][]byte, 4)
	for i := range shards {
		shards[i] = make([]byte, 64)
		rng.Read(shards[i])
		leaves[i] = fragLeafForTest(payLen, i, shards[i])
	}
	tree := merkle.NewTree(leaves)
	instance := rbc.InstanceID(0, "byz")
	for j := 1; j < 4; j++ {
		c.Net.Endpoint(0).Send(wire.Message{
			To: j, Protocol: rbc.Protocol, Instance: instance, Type: "FRAG",
			Payload: wire.MustMarshalBody(rawFrag{
				Root: tree.Root(), Index: j, PayLen: payLen,
				Shard: shards[j], Branch: tree.Branch(j),
			}),
		})
	}
	select {
	case d := <-col.ch:
		t.Fatalf("party %d delivered from an inconsistent encoding", d.party)
	case <-time.After(700 * time.Millisecond):
	}
	invalid := int64(0)
	for _, i := range []int{1, 2, 3} {
		invalid += c.Regs[i].Counter("rbc.coded.invalid").Value()
	}
	if invalid == 0 {
		t.Fatal("no party flagged the inconsistent root")
	}

	// The routers survived the attack: a fresh honest coded broadcast on
	// the same cluster still delivers.
	col2 := newCollector(4)
	insts := startCodedInstances(c, col2, 1, "after", 1024, []int{1, 2, 3})
	msg := bytes.Repeat([]byte{0x5a}, 8*1024)
	if err := insts[1].Start(msg); err != nil {
		t.Fatal(err)
	}
	got := col2.waitAll(t, []int{1, 2, 3})
	for _, p := range got {
		if !bytes.Equal(p, msg) {
			t.Fatal("wrong payload after attack")
		}
	}
}

// TestCodedChaosFaultsim runs coded broadcasts while party 1 executes the
// honest code over a transport that equivocates, mutates, and drops its
// traffic. The honest parties must deliver identical histories for every
// instance, and no router may absorb a handler panic.
func TestCodedChaosFaultsim(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 31, Observe: true, Corrupted: []int{1}})
	byzTr := faultsim.Wrap(c.Net.Endpoint(1), 31,
		faultsim.Equivocate(), faultsim.Mutate(0.35), faultsim.Drop(0.25))
	byzRouter := engine.NewRouter(byzTr)
	routerDone := make(chan struct{})
	go func() { defer close(routerDone); byzRouter.Run() }()
	t.Cleanup(func() { c.Stop(); <-routerDone })

	honest := []int{0, 2, 3}
	const rounds = 3
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < rounds; k++ {
		tag := fmt.Sprintf("chaos%d", k)
		col := newCollector(4)
		insts := startCodedInstances(c, col, 0, tag, 512, honest)
		byzRouter.DoSync(func() {
			rbc.New(rbc.Config{
				Router:         byzRouter,
				Struct:         st,
				Instance:       rbc.InstanceID(0, tag),
				Sender:         0,
				Deliver:        col.deliverFn(1),
				CodedThreshold: 512,
			})
		})
		msg := make([]byte, 4096+rng.Intn(16384))
		rng.Read(msg)
		if err := insts[0].Start(msg); err != nil {
			t.Fatal(err)
		}
		got := col.waitAll(t, honest)
		for p, payload := range got {
			if !bytes.Equal(payload, msg) {
				t.Fatalf("round %d: party %d diverged from the honest sender", k, p)
			}
		}
	}
	for _, i := range honest {
		if v := c.Regs[i].Counter("router.panics").Value(); v != 0 {
			t.Fatalf("party %d absorbed %d handler panics", i, v)
		}
	}
}
