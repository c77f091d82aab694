package sintra_test

import (
	"testing"

	"sintra"
)

// TestPipelineMixedFleetEquivalence runs one seeded deployment with a
// mixed fleet — two replicas with the parallel verification pipeline
// disabled (legacy single-stage dispatch) and two with a 4-worker pool —
// and asserts the equivalence claim of the verify/apply split: every
// honest replica executes the identical (seq, state) history, so the
// pipelined path delivers exactly what the legacy path delivers.
func TestPipelineMixedFleetEquivalence(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(42),
		sintra.WithTuningFor(0, sintra.Tuning{VerifyWorkers: -1}),
		sintra.WithTuningFor(1, sintra.Tuning{VerifyWorkers: -1}),
		sintra.WithTuningFor(2, sintra.Tuning{VerifyWorkers: 4}),
		sintra.WithTuningFor(3, sintra.Tuning{VerifyWorkers: 4}),
	)
	c.run(t, 8)
	c.assertReplicasConsistent(t)
	// The pooled replicas must actually have verified off the dispatch
	// goroutine — otherwise the test compared legacy against legacy.
	if n := c.dep.Metrics().Counter("engine.verify.messages"); n == 0 {
		t.Fatal("verification pool never ran; the pipelined path was not exercised")
	}
}

// TestPipelineVerifyPoolUnderAttack stresses the verification workers
// (race detector included when run with -race) against a corrupted party
// that both floods junk envelopes and mutates payloads: concurrent
// verifiers must neither crash nor let the fleet diverge, and degraded
// or malformed input must fall back to the serialized inline path.
func TestPipelineVerifyPoolUnderAttack(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(4242),
		sintra.WithTuning(sintra.Tuning{VerifyWorkers: 4}),
		sintra.WithByzantine(1, sintra.Flood(3), sintra.Mutate(0.4)),
	)
	c.run(t, 4)
	c.assertReplicasConsistent(t, 1)
	snap := c.dep.Metrics()
	if n := snap.Counter("engine.verify.messages"); n == 0 {
		t.Fatal("verification pool never ran under attack")
	}
	if n := snap.Counter("engine.verify.panics"); n != 0 {
		t.Fatalf("verify stage recovered %d panics; attacker input must not reach a panic", n)
	}
}
