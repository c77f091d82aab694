// Repository-level benchmarks: one per reproduced table/figure (see the
// experiment index in DESIGN.md §3 and the results in EXPERIMENTS.md).
// Regenerate everything with:
//
//	go test -bench=. -benchmem .
//	go run ./cmd/sintra-bench -exp all
package sintra_test

import (
	"testing"
	"time"

	"sintra/internal/bench"
)

// benchLayer drives one protocol layer of experiment S3 (the §3 stack
// diagram) end to end — n=4 servers over the simulated asynchronous
// network, 256-byte payloads, every honest party delivering — and reports
// the per-operation message and byte cost alongside the timing.
func benchLayer(b *testing.B, layer string) {
	b.Helper()
	row, err := bench.RunLayer(4, layer, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(row.MsgsPer, "msgs/op")
	b.ReportMetric(row.BytesPerOp, "wire-bytes/op")
}

// Experiment S3 — the protocol stack, bottom to top. The paper's shape to
// reproduce: reliable/consistent broadcast ≪ binary agreement < multi-
// valued agreement < atomic broadcast < secure causal atomic broadcast.
func BenchmarkS3ReliableBroadcast(b *testing.B)    { benchLayer(b, "rbc") }
func BenchmarkS3ConsistentBroadcast(b *testing.B)  { benchLayer(b, "cbc") }
func BenchmarkS3BinaryAgreement(b *testing.B)      { benchLayer(b, "aba") }
func BenchmarkS3MultiValuedAgreement(b *testing.B) { benchLayer(b, "mvba") }
func BenchmarkS3AtomicBroadcast(b *testing.B)      { benchLayer(b, "abc") }
func BenchmarkS3SecureCausalABC(b *testing.B)      { benchLayer(b, "scabc") }

// BenchmarkABC is the headline per-delivery latency number: atomic
// broadcast at n=7 (t=2), the paper's mid-size deployment.
func BenchmarkABC(b *testing.B) {
	row, err := bench.RunLayer(7, "abc", b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(row.MsgsPer, "msgs/op")
	b.ReportMetric(row.BytesPerOp, "wire-bytes/op")
}

// BenchmarkABCGroups reruns the headline n=7 atomic broadcast once per
// group backend — the end-to-end rows of the EXPERIMENTS.md modp2048 vs
// p256 comparison. modp2048 is the production-parameter Z_p* backend
// (expensive: seconds per op on this class of hardware), p256 the
// elliptic backend at equivalent security, test256 the usual test group.
func BenchmarkABCGroups(b *testing.B) {
	for _, name := range []string{"modp2048", "p256", "test256"} {
		b.Run(name, func(b *testing.B) {
			if err := bench.SetGroupName(name); err != nil {
				b.Fatal(err)
			}
			row, err := bench.RunLayer(7, "abc", b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(row.MsgsPer, "msgs/op")
			b.ReportMetric(row.BytesPerOp, "wire-bytes/op")
		})
	}
	if err := bench.SetGroupName("test256"); err != nil {
		b.Fatal(err)
	}
}

// Experiment A8 — expected-constant-round binary agreement with split
// inputs; reports the mean rounds per decision.
func BenchmarkA8AgreementRounds(b *testing.B) {
	rows, err := bench.RunABARounds([]int{4}, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[0].MeanRounds, "rounds/op")
	b.ReportMetric(rows[0].MeanMsgs, "msgs/op")
}

// Experiment F1 — the Figure 1 liveness comparison: each iteration runs
// the leader-stalking attack against the deterministic baseline and the
// party-starving attack against the randomized stack. The baseline must
// deliver nothing; the randomized stack must make progress.
func BenchmarkFigure1LivenessAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunF1(300 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.BaselineDelivered != 0 {
			b.Fatalf("baseline delivered %d under the stalker", res.BaselineDelivered)
		}
		if res.OursDelivered == 0 {
			b.Fatal("randomized stack made no progress under starvation")
		}
	}
}

// Experiments E1/E2 — the §4.3 worked examples, run live with the claimed
// worst-case corruption crashed.
func BenchmarkE1Example1(b *testing.B) {
	res, err := bench.RunExample1(b.N)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Q3 || res.MaxTolerated != 4 {
		b.Fatalf("paper claims violated: %+v", res)
	}
}

func BenchmarkE2Example2(b *testing.B) {
	res, err := bench.RunExample2(b.N)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Q3 || res.MaxTolerated != 7 {
		b.Fatalf("paper claims violated: %+v", res)
	}
}

// Experiment P5 — input causality: plain atomic broadcast exposes request
// contents to the network before ordering; secure causal atomic broadcast
// does not.
func BenchmarkP5InputCausality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunCausality()
		if err != nil {
			b.Fatal(err)
		}
		if !res.PlainLeaks || res.CausalLeaks {
			b.Fatalf("causality result inverted: %+v", res)
		}
	}
}

// Ablation AB1 — proposal batching: one iteration orders 16 requests at
// the given batch size; msgs/req drops as batches amortize agreements.
func benchBatch(b *testing.B, size int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunBatchAblation([]int{size}, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MsgsPerReq, "msgs/req")
	}
}

func BenchmarkAB1Batch1(b *testing.B)  { benchBatch(b, 1) }
func BenchmarkAB1Batch8(b *testing.B)  { benchBatch(b, 8) }
func BenchmarkAB1Batch32(b *testing.B) { benchBatch(b, 32) }

// Ablation AB2 — the dealer's default (quorum certificate, RSA answer)
// versus ForceCert driving the same atomic-broadcast workload.
func BenchmarkAB2SignatureSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunSigSchemeAblation(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BytesPer, "default-bytes/req")
		b.ReportMetric(rows[1].BytesPer, "forcecert-bytes/req")
	}
}

// Experiment T1 — tightness of the optimal n > 3t resilience bound: one
// iteration sweeps crash counts 0..t+1 plus equivocating-Byzantine counts
// 1..t and asserts progress exactly up to t faults.
func BenchmarkT1ResilienceBoundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunToleranceSweep(4, 1, 1, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if (r.Faulty <= r.T) != r.Live {
				b.Fatalf("bound not tight at %d %s faults", r.Faulty, r.Fault)
			}
		}
	}
}
