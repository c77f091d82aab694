package sintra_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"sintra"
	"sintra/internal/wire"
)

// sendOrderTally delivers messages in the order they were sent and
// tallies them by (protocol, type). In send order a certificate cannot
// outrun the payload it certifies, so a fetch count of zero follows from
// the protocol and not from timing.
type sendOrderTally struct {
	mu    sync.Mutex
	msgs  map[[2]string]int
	bytes map[[2]string]int
}

func (s *sendOrderTally) Next(pending []wire.Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := [2]string{pending[0].Protocol, pending[0].Type}
	s.msgs[k]++
	s.bytes[k] += pending[0].Size()
	return 0
}

// TestWireBudget pins what an ordered 64-byte request puts on the wire at
// n=4: the agreement value names the signed proposals every party was just
// sent by their digests, so the messages that carry it (cbc SEND and the
// START loopbacks) stay small, and the ones that close a consistent
// broadcast (FINAL) and cast a vote in the agreement (VOTE) carry a
// certificate; only PROPOSAL, which moves the payloads, may be large;
// nothing is fetched on the fault-free path; and a message carries its
// values, not a schema: an agreement message — a round number and a bit —
// stays under 64 B with its envelope. Binary agreement on unanimous input
// decides in round 1 on the fixed first coin, and its decided parties
// open no later round. Trial 1 of multi-valued agreement is led by the
// round's public leader and tosses no coin, so a LEADCOIN (n² per trial)
// is sent only in a round whose trial 1 decided 0: at most n²/2 = 8 per
// request. Without the coin hop the leader's broadcast is sometimes not
// certified yet when a quorum has voted, and send order does not fix how
// fast each replica drains its inbox: 4–13 of the 50 rounds reach trial
// 2, each with a second binary agreement that decides 0, for 1.3–4.2
// LEADCOIN, 66–101 aba messages, 157–202 in all and 18.6–19.7 KiB per
// request (22–26 KiB with the share commitments below; with a leader
// coin in every trial: 16 LEADCOIN, ≈ 52 aba and 164–211 in all). The bounds, 110 aba messages, 225 in all and 30 KiB,
// sit above that and below a tossed coin from round 1 on with eager
// rounds (119–152, 233–265 and 32–35 KiB idle; with whole proposals in
// the value besides: ≈ 500 B per SEND and START, 42 KiB; with gob's type
// descriptors too: 83–96 B and 76 KiB). A quorum-key share is one
// Ed25519 signature: a cbc SHARE stays under 160 B (≈ 108 B; 241 B as a
// threshold-RSA share with its proof), and a FINAL (≈ 270 B) or a
// yes-VOTE carries n−t of them under a signer bitmap as a certificate.
// An answer share is its value alone, without Shoup's proof: a client
// RESPONSE (≈ 159 B) stays under 200 B (288 B with the proof, 423 B with
// the proof's commitments too).
func TestWireBudget(t *testing.T) {
	tally := &sendOrderTally{msgs: map[[2]string]int{}, bytes: map[[2]string]int{}}
	c := newChainCluster(t, 4, 1, sintra.WithSeed(7), sintra.WithScheduler(tally))
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	const requests = 50
	for i := 0; i < requests; i++ {
		if _, err := invokeWithin(client, []byte(fmt.Sprintf("%-64d", i)), 60*time.Second); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	tally.mu.Lock()
	defer tally.mu.Unlock()
	var keys [][2]string
	total, count := 0, 0
	for k := range tally.msgs {
		keys = append(keys, k)
		total += tally.bytes[k]
		count += tally.msgs[k]
	}
	sort.Slice(keys, func(i, j int) bool { return tally.bytes[keys[i]] > tally.bytes[keys[j]] })
	for _, k := range keys {
		t.Logf("%-10s %-9s %6d msgs %8d B  avg %5d B  %4.1f%%", k[0], k[1], tally.msgs[k], tally.bytes[k],
			tally.bytes[k]/tally.msgs[k], 100*float64(tally.bytes[k])/float64(total))
	}
	kib, msgs := float64(total)/1024/requests, float64(count)/requests
	t.Logf("%.1f KiB and %.1f messages per request", kib, msgs)
	if kib > 30 {
		t.Errorf("%.1f KiB per request, want ≤ 30", kib)
	}
	if msgs > 225 {
		t.Errorf("%.1f messages per request, want ≤ 225", msgs)
	}
	aba := 0
	for k, n := range tally.msgs {
		if k[0] == "aba" {
			aba += n
		}
	}
	if per := float64(aba) / requests; per > 110 {
		t.Errorf("%.1f aba messages per request, want ≤ 110", per)
	}
	if per := float64(tally.msgs[[2]string{"mvba", "LEADCOIN"}]) / requests; per > 4*4/2 {
		t.Errorf("%.1f mvba LEADCOIN per request, want ≤ n²/2 = 8: trial 1 tosses no coin", per)
	}
	for _, typ := range []string{"BVAL", "AUX", "DECIDED", "START"} {
		k := [2]string{"aba", typ}
		if tally.msgs[k] == 0 {
			t.Fatalf("no aba %s was delivered", typ)
		}
		if avg := tally.bytes[k] / tally.msgs[k]; avg >= 64 {
			t.Errorf("aba %s averages %d B, want < 64", typ, avg)
		}
	}

	for _, k := range keys {
		if avg := tally.bytes[k] / tally.msgs[k]; k != [2]string{"abc", "PROPOSAL"} && avg > 1024 {
			t.Errorf("%s %s averages %d B: only PROPOSAL may exceed 1 KiB", k[0], k[1], avg)
		}
	}
	for _, k := range [][2]string{{"cbc", "SEND"}, {"cbc", "START"}, {"mvba", "START"}} {
		if tally.msgs[k] == 0 {
			t.Fatalf("no %s %s was delivered", k[0], k[1])
		}
		if avg := tally.bytes[k] / tally.msgs[k]; avg >= 256 {
			t.Errorf("%s %s averages %d B, want proposal digests, not the proposals (< 256 B)", k[0], k[1], avg)
		}
	}
	for _, k := range [][2]string{{"cbc", "FINAL"}, {"mvba", "VOTE"}} {
		if tally.msgs[k] == 0 {
			t.Fatalf("no %s %s was delivered", k[0], k[1])
		}
		if avg := tally.bytes[k] / tally.msgs[k]; avg >= 400 {
			t.Errorf("%s %s averages %d B, want a certificate without its payload (< 400 B)", k[0], k[1], avg)
		}
	}
	for k, limit := range map[[2]string]int{{"cbc", "SHARE"}: 160, {"client", "RESPONSE"}: 200} {
		if tally.msgs[k] == 0 {
			t.Fatalf("no %s %s was delivered", k[0], k[1])
		}
		if avg := tally.bytes[k] / tally.msgs[k]; avg >= limit {
			t.Errorf("%s %s averages %d B, want a share without a proof or its commitments (< %d B)", k[0], k[1], avg, limit)
		}
	}
	for _, k := range [][2]string{{"cbc", "REQ"}, {"cbc", "ANS"}, {"abc", "FETCH"}, {"abc", "PAYLOAD"}} {
		if n := tally.msgs[k]; n != 0 {
			t.Errorf("%d %s %s on the fault-free path in send order, want 0", n, k[0], k[1])
		}
	}
}
