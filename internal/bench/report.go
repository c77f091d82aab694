package bench

import (
	"fmt"
	"io"
	"strings"
)

// Figure1Row is one qualitative row of the paper's Figure 1 comparison.
type Figure1Row struct {
	Reference string
	Timing    string
	Servers   string
	BA        string
	Remark    string
}

// Figure1Table reproduces the paper's Figure 1, with this repository as
// the last row (the paper's "this paper" row).
func Figure1Table() []Figure1Row {
	return []Figure1Row{
		{"RB94 [33]", "async.", "static", "yes (1)", "crash-failures only"},
		{"Rampart [32]", "async.", "dynamic", "no", "FD for liveness and safety"},
		{"Total alg. [27]", "prob. async.", "static", "no", "needs causal order on links"},
		{"CL99 [11]", "async.", "static", "no", "FD for liveness"},
		{"Fleet [26]", "async.", "static", "yes (2)", "no state machine replication"},
		{"SecureRing [22]", "async.", "static", "yes (3)", `"Byzantine" FD`},
		{"DGG00 [15]", "async.", "static", "yes (3)", `"Byzantine" FD`},
		{"this repo", "async.", "static", "yes (4)", "general adversaries (Q3)"},
	}
}

// PrintFigure1 renders the qualitative table plus the measured liveness
// comparison.
func PrintFigure1(w io.Writer, res F1Result) {
	fmt.Fprintln(w, "Figure 1 — systems for secure state machine replication")
	fmt.Fprintf(w, "%-16s %-13s %-8s %-8s %s\n", "Reference", "Timing", "Servers", "BA?", "Remark")
	for _, r := range Figure1Table() {
		fmt.Fprintf(w, "%-16s %-13s %-8s %-8s %s\n", r.Reference, r.Timing, r.Servers, r.BA, r.Remark)
	}
	fmt.Fprintf(w, "\nliveness under the §2.2 scheduler attack (window %v):\n", res.Window)
	fmt.Fprintf(w, "%-34s %-12s %s\n", "protocol / adversary", "delivered", "note")
	fmt.Fprintf(w, "%-34s %-12d %s\n", "FD baseline / leader stalker", res.BaselineDelivered,
		fmt.Sprintf("%d view changes, zero progress", res.BaselineViews))
	fmt.Fprintf(w, "%-34s %-12d %s\n", "randomized ABC / party starved", res.OursDelivered,
		"terminates under any scheduler")
	fmt.Fprintf(w, "%-34s %-12d %s\n", "randomized ABC / fair network", res.OursFairDelivered, "reference")
}

// PrintStack renders the protocol-stack cost table (experiment S3). The
// percentile columns come from the observability registry: p50/p99 of
// the layer's own latency histogram, and p99 of single-message dispatch
// in the router.
func PrintStack(w io.Writer, rows []StackRow) {
	fmt.Fprintf(w, "S3 — cost per delivered payload, by protocol layer (256 B payloads, group=%s)\n", GroupName())
	fmt.Fprintf(w, "%-7s %4s %3s %12s %14s %12s %10s %10s %12s\n",
		"layer", "n", "t", "msgs/op", "bytes/op", "latency/op", "p50", "p99", "dispatch-p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %4d %3d %12.1f %14.0f %12v %10v %10v %12v\n",
			r.Layer, r.N, r.T, r.MsgsPer, r.BytesPerOp, r.LatencyPer.Round(10*1000),
			r.LayerP50.Round(10*1000), r.LayerP99.Round(10*1000), r.DispatchP99.Round(1000))
	}
}

// PrintABARounds renders the expected-constant-rounds table (experiment A8).
func PrintABARounds(w io.Writer, rows []ABARow) {
	fmt.Fprintf(w, "A8 — randomized binary agreement, split inputs (group=%s)\n", GroupName())
	fmt.Fprintf(w, "%4s %3s %7s %12s %6s %11s %12s\n", "n", "t", "trials", "mean rounds", "s.e.", "max rounds", "mean msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %3d %7d %12.2f %6.2f %11d %12.1f\n",
			r.N, r.T, r.Trials, r.MeanRounds, r.SERounds, r.MaxRounds, r.MeanMsgs)
	}
	fmt.Fprintln(w, "paper claim: expected constant rounds, independent of n")
}

// PrintExample renders an E1/E2 result.
func PrintExample(w io.Writer, res ExampleResult) {
	fmt.Fprintf(w, "%s — n=%d servers\n", res.Name, res.N)
	fmt.Fprintf(w, "  Q3 condition:                        %v\n", res.Q3)
	fmt.Fprintf(w, "  largest tolerated corruption:        %d servers\n", res.MaxTolerated)
	fmt.Fprintf(w, "  best threshold scheme on %d servers: t = %d\n", res.N, res.ThresholdMax)
	fmt.Fprintf(w, "  corruptible sets cannot reconstruct: %v\n", res.CorruptibleUnqualified)
	fmt.Fprintf(w, "  honest survivors always reconstruct: %v\n", res.SurvivorsQualified)
	fmt.Fprintf(w, "  live run with servers %v crashed (%d of %d):\n", res.Crashed, len(res.Crashed), res.N)
	fmt.Fprintf(w, "    atomic broadcast delivered %d/%d requests, %v per request\n",
		res.LiveDelivered, res.LiveDelivered, res.LiveLatency.Round(10*1000))
}

// PrintCausality renders the P5 result.
func PrintCausality(w io.Writer, res CausalityResult) {
	fmt.Fprintln(w, "P5 — input causality (notary front-running, §5.2)")
	fmt.Fprintf(w, "  request content visible on the wire before ordering:\n")
	fmt.Fprintf(w, "    plain atomic broadcast:         %v  (corrupted server could front-run)\n", res.PlainLeaks)
	fmt.Fprintf(w, "    secure causal atomic broadcast: %v  (TDH2 keeps it sealed until ordered)\n", res.CausalLeaks)
}

// Separator prints a section break.
func Separator(w io.Writer) {
	fmt.Fprintln(w, strings.Repeat("-", 72))
}

// PrintBatchAblation renders the batching ablation.
func PrintBatchAblation(w io.Writer, rows []BatchRow) {
	fmt.Fprintf(w, "AB1 — batching ablation (atomic broadcast, n=4, group=%s)\n", GroupName())
	fmt.Fprintf(w, "%10s %9s %7s %12s %12s\n", "batch", "requests", "rounds", "msgs/req", "total time")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %9d %7d %12.1f %12v\n",
			r.BatchSize, r.Requests, r.Rounds, r.MsgsPerReq, r.LatencyAll.Round(10*1000))
	}
	fmt.Fprintln(w, "larger batches amortize one agreement over many requests (§6 optimizations)")
}

// PrintBatchVerifySweep renders the batch-verification sweep: the same
// atomic-broadcast load with coalesced share verification on and off.
func PrintBatchVerifySweep(w io.Writer, rows []BatchVerifyRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "AB3 — batch-verification sweep (atomic broadcast, n=%d, group=%s)\n", rows[0].N, GroupName())
	fmt.Fprintf(w, "%-10s %9s %12s %9s %13s %11s\n", "mode", "requests", "total time", "batches", "batched msgs", "mean batch")
	for _, r := range rows {
		mean := 0.0
		if r.Batches > 0 {
			mean = float64(r.BatchedMsgs) / float64(r.Batches)
		}
		fmt.Fprintf(w, "%-10s %9d %12v %9d %13d %11.1f\n",
			r.Mode, r.Requests, r.LatencyAll.Round(10*1000), r.Batches, r.BatchedMsgs, mean)
	}
	fmt.Fprintln(w, "one random-linear-combination multi-exp checks a whole share burst; culprits isolated by binary split")
}

// PrintSigSchemeAblation renders the signature-scheme ablation.
func PrintSigSchemeAblation(w io.Writer, rows []SigSchemeRow) {
	fmt.Fprintln(w, "AB2 — threshold-signature ablation (same atomic-broadcast workload)")
	fmt.Fprintf(w, "%-14s %4s %9s %12s %14s %12s\n", "scheme", "n", "requests", "msgs/req", "bytes/req", "total time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %4d %9d %12.1f %14.0f %12v\n",
			r.Scheme, r.N, r.Requests, r.MsgsPerReq, r.BytesPer, r.LatencyAll.Round(10*1000))
	}
	fmt.Fprintln(w, "Shoup RSA: constant-size signatures, heavy arithmetic; certificates: linear size, cheap ops")
}

// PrintStackScaling renders the GOMAXPROCS scaling table: the S3 stack
// rerun per CPU count, with speedup relative to the first count.
func PrintStackScaling(w io.Writer, n int, rows []ScalingRow) {
	fmt.Fprintf(w, "S3 scaling — latency per delivered payload vs GOMAXPROCS (n=%d, group=%s)\n", n, GroupName())
	fmt.Fprintf(w, "%-7s %5s %12s %9s\n", "layer", "cpus", "latency/op", "scaling")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %5d %12v %8.2fx\n",
			r.Layer, r.CPUs, r.LatencyPer.Round(10*1000), r.Scaling)
	}
	fmt.Fprintln(w, "scaling = first-row latency / row latency, per layer; the verify")
	fmt.Fprintln(w, "pool moves signature/proof checks off the dispatch goroutine, so")
	fmt.Fprintln(w, "headroom appears only when cpus > 1")
}
