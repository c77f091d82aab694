package abc_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// TestRandomBytesAgainstEveryLayer feeds pseudorandom garbage at every
// protocol namespace of the stack — malformed bodies, random types,
// random instances, spoofed rounds — from a corrupted party, and then
// requires a completely normal atomic-broadcast run on top of the noise.
// No handler may panic, wedge, or corrupt the total order.
func TestRandomBytesAgainstEveryLayer(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 71, Corrupted: []int{3}})
	parties := []int{0, 1, 2}
	h := newHarness(t, c, parties)

	rng := rand.New(rand.NewSource(99))
	protocols := []string{"rbc", "cbc", "aba", "mvba", "abc", "scabc", "client", "fdabc"}
	types := []string{
		"SEND", "ECHO", "READY", "REQ", "ANS", "SHARE", "FINAL", "START",
		"BVAL", "AUX", "COIN", "DECIDED", "VOTE", "LEADCOIN", "FETCH",
		"PAYLOAD", "PROPOSAL", "SUBMIT", "SHARES", "REQUEST", "RESPONSE", "ZZZ",
	}
	instances := []string{
		"svc", "svc/r1", "svc/r2", "0/m/svc/r1", "1/m/svc/r1", "svc/r1/t1",
		"", "////", "0/", "x/y/z", "svc/v3",
	}
	ep := c.Net.Endpoint(3)
	for i := 0; i < 400; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		ep.Send(wire.Message{
			To:       rng.Intn(3),
			Protocol: protocols[rng.Intn(len(protocols))],
			Instance: instances[rng.Intn(len(instances))],
			Type:     types[rng.Intn(len(types))],
			Payload:  payload,
		})
	}

	const total = 3
	for k := 0; k < total; k++ {
		if err := h.insts[parties[k%3]].Broadcast([]byte(fmt.Sprintf("fuzz-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 180*time.Second)
	h.assertSameOrder(t, parties, total)
}
