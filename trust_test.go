package sintra_test

import (
	"errors"
	"testing"
	"time"

	"sintra"
)

// thresholds is one "any f parties may fail" assumption per party.
func thresholds(fs ...int) []sintra.FailProne {
	systems := make([]sintra.FailProne, len(fs))
	for i, f := range fs {
		systems[i] = sintra.ThresholdFailProne(f)
	}
	return systems
}

// TestAsymmetricTrustFullStack drives requests through the whole stack —
// RBC, CBC, ABA and the coin, MVBA, atomic / secure-causal broadcast,
// threshold-signed answers — with every replica's quorum rules evaluated
// through an asymmetric backend instead of the shared adversary
// structure: WithTrust's one caller above the rbc and coin ports. Every
// answer must verify and the honest replicas must walk through identical
// (seq, state) histories.
func TestAsymmetricTrustFullStack(t *testing.T) {
	cases := []struct {
		name    string
		n, f    int // the dealt threshold structure
		systems []sintra.FailProne
		opts    []sintra.SimOption
	}{
		// Uniform assumptions with the fault budget spent on a crash. The
		// crashed server is the last one, so chainCluster's creation-order
		// mapping of machines to servers still holds.
		{"n4-atomic-crash", 4, 1, thresholds(1, 1, 1, 1),
			[]sintra.SimOption{sintra.WithSeed(71), sintra.WithCrashed(3)}},
		{"n4-causal-crash", 4, 1, thresholds(1, 1, 1, 1),
			[]sintra.SimOption{sintra.WithSeed(73), sintra.WithCrashed(3), sintra.WithMode(sintra.ModeSecureCausal)}},
		// Genuinely asymmetric: party 6 trusts more than the others do.
		{"n7-mixed-thresholds", 7, 2, thresholds(2, 2, 2, 2, 2, 2, 1),
			[]sintra.SimOption{sintra.WithSeed(79)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asym, err := sintra.NewAsymmetricTrust(tc.n, tc.systems)
			if err != nil {
				t.Fatal(err)
			}
			c := newChainCluster(t, tc.n, tc.f, append(tc.opts, sintra.WithTrust(asym))...)
			c.run(t, 3) // liveness, VerifyAnswer on each, replica histories equal
		})
	}
}

// TestAsymmetricTrustRulesTheStack is the counterpart that shows the
// backend has teeth: seven servers dealt for two faults order requests
// with two servers down under the default symmetric backend, but when
// every party assumes at most one fault its quorums have six members, and
// the five live servers can never form one — nothing is ordered.
func TestAsymmetricTrustRulesTheStack(t *testing.T) {
	asym, err := sintra.NewAsymmetricTrust(7, thresholds(1, 1, 1, 1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := newChainCluster(t, 7, 2, sintra.WithSeed(83), sintra.WithCrashed(5, 6), sintra.WithTrust(asym))
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := invokeWithin(client, []byte("needs a quorum of six"), 2*time.Second); !errors.Is(err, sintra.ErrTimeout) {
		t.Fatalf("five live servers answered under six-member quorums: err = %v", err)
	}
	if n := c.dep.Metrics().Counter("abc.deliver"); n != 0 {
		t.Fatalf("%d payloads ordered without a quorum", n)
	}
}
