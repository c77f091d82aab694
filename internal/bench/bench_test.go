package bench

import (
	"bytes"
	"testing"
	"time"
)

// The experiment harness is exercised heavily by cmd/sintra-bench and the
// root benchmarks; these smoke tests keep it correct under `go test` and
// assert the headline claims on minimal parameters.

func TestRunLayerSmoke(t *testing.T) {
	for _, layer := range stackLayers {
		row, err := RunLayer(4, layer, 1)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		if row.MsgsPer <= 0 || row.BytesPerOp <= 0 {
			t.Fatalf("%s: empty metrics %+v", layer, row)
		}
	}
	if _, err := RunLayer(4, "bogus", 1); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestRunABARoundsSmoke(t *testing.T) {
	rows, err := RunABARounds([]int{4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MeanRounds < 1 {
		t.Fatalf("rounds = %v", rows[0].MeanRounds)
	}
}

func TestRunF1ReproducesLivenessGap(t *testing.T) {
	res, err := RunF1(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineDelivered != 0 {
		t.Fatalf("baseline delivered %d under the stalker", res.BaselineDelivered)
	}
	if res.BaselineViews < 2 {
		t.Fatalf("baseline made only %d view changes", res.BaselineViews)
	}
	if res.OursDelivered == 0 {
		t.Fatal("randomized stack made no progress")
	}
}

func TestRunExamplesReproduceClaims(t *testing.T) {
	e1, err := RunExample1(1)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Q3 || e1.MaxTolerated != 4 || !e1.CorruptibleUnqualified || !e1.SurvivorsQualified {
		t.Fatalf("example1: %+v", e1)
	}
	e2, err := RunExample2(1)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Q3 || e2.MaxTolerated != 7 || e2.ThresholdMax != 5 || !e2.SurvivorsQualified {
		t.Fatalf("example2: %+v", e2)
	}
}

func TestRunCausalityDirection(t *testing.T) {
	res, err := RunCausality()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlainLeaks || res.CausalLeaks {
		t.Fatalf("causality inverted: %+v", res)
	}
}

func TestBatchAblationMonotone(t *testing.T) {
	// Batch 1 forces one agreement per handful of requests; batch 16 can
	// order the whole load in very few rounds. Expect a clear reduction
	// (the margin absorbs scheduler noise).
	rows, err := RunBatchAblation([]int{1, 16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].MsgsPerReq >= rows[0].MsgsPerReq*0.9 {
		t.Fatalf("batching did not reduce msgs/req: batch16=%v vs batch1=%v", rows[1].MsgsPerReq, rows[0].MsgsPerReq)
	}
	if rows[1].Rounds > rows[0].Rounds {
		t.Fatalf("bigger batches used more rounds: %d vs %d", rows[1].Rounds, rows[0].Rounds)
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintFigure1(&buf, F1Result{Window: time.Second})
	PrintStack(&buf, []StackRow{{Layer: "rbc", N: 4}})
	PrintABARounds(&buf, []ABARow{{N: 4}})
	PrintExample(&buf, ExampleResult{Name: "x"})
	PrintCausality(&buf, CausalityResult{PlainLeaks: true})
	PrintBatchAblation(&buf, []BatchRow{{BatchSize: 1}})
	PrintSigSchemeAblation(&buf, []SigSchemeRow{{Scheme: "ForceCert"}})
	Separator(&buf)
	if buf.Len() == 0 {
		t.Fatal("printers produced nothing")
	}
	if len(Figure1Table()) != 8 {
		t.Fatal("Figure 1 must list the paper's seven systems plus this repo")
	}
}

func TestToleranceBoundary(t *testing.T) {
	rows, err := RunToleranceSweep(4, 1, 1, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sawByzantine := false
	for _, r := range rows {
		if r.Faulty <= r.T && !r.Live {
			t.Fatalf("stalled with %d <= t %s faults", r.Faulty, r.Fault)
		}
		if r.Faulty > r.T && r.Live {
			t.Fatalf("progressed with %d > t crashes — the n>3t bound should be tight", r.Faulty)
		}
		if r.Fault == "byzantine" {
			sawByzantine = true
		}
	}
	if !sawByzantine {
		t.Fatal("sweep has no byzantine rows — active corruption must be measured too")
	}
	PrintToleranceSweep(bytes.NewBuffer(nil), rows)
}
