package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"sintra"
	"sintra/internal/obs"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	var values []float64
	for i := 1; i <= 200; i++ {
		values = append(values, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0, 1}} {
		if got := percentile(values, c.q); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The reported tail is the highest percentile with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowOwnsTheRequestsFinishedInsideIt(t *testing.T) {
	base := time.Unix(1000, 0)
	var iv interval
	iv.from.at, iv.to.at = base, base.Add(time.Second)
	iv.assign([]sample{
		{start: base.Add(-50 * time.Millisecond), end: base.Add(-time.Millisecond)},       // before it opened
		{start: base.Add(-50 * time.Millisecond), end: base},                              // on the edge: inside
		{start: base.Add(900 * time.Millisecond), end: base.Add(999 * time.Millisecond)},  // inside
		{start: base.Add(900 * time.Millisecond), end: base.Add(time.Second)},             // the next window's
		{start: base.Add(950 * time.Millisecond), end: base.Add(1200 * time.Millisecond)}, // the next window's
	})
	if len(iv.samples) != 2 || iv.samples[0].latency() != 50*time.Millisecond || iv.samples[1].latency() != 99*time.Millisecond {
		t.Errorf("window took %d samples, want the 2 that finished inside it", len(iv.samples))
	}
}

func TestProbeFactor(t *testing.T) {
	base := time.Unix(5000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	// The machine runs at the reference speed for a second, then at two
	// thirds of it.
	p := &probe{}
	for i := 0; i < 10; i++ {
		cost := probeReferenceUs
		if i >= 5 {
			cost *= 1.5
		}
		p.samples = append(p.samples, probeSample{at: at(200 * i), cost: cost})
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := p.factor(1, at(0), at(1000)); !near(got, 1) {
		t.Errorf("fast second: factor %v, want 1", got)
	}
	if got := p.factor(1, at(1000), at(2000)); !near(got, 2.0/3) {
		t.Errorf("slow second: factor %v, want 2/3", got)
	}
	// A span over both states is restated with the mean speed, which moves
	// smoothly with the split, not with the median, which would jump.
	if got := p.factor(1, at(0), at(2000)); !near(got, (1+2.0/3)/2) {
		t.Errorf("both seconds: factor %v, want 5/6", got)
	}
	if got := p.factor(1, at(0), at(1400)); !near(got, (5+2*2.0/3)/7) {
		t.Errorf("five fast samples and two slow: factor %v", got)
	}
	// No sample inside: the nearest one decides.
	if got := p.factor(1, at(1010), at(1020)); !near(got, 2.0/3) {
		t.Errorf("between samples: factor %v, want that of the sample 10 ms before", got)
	}
	if got := p.factor(1, at(5000), at(6000)); !near(got, 2.0/3) {
		t.Errorf("after the last sample: factor %v, want the last sample's", got)
	}
	if got := (&probe{}).factor(1, at(0), at(1000)); got != 1 {
		t.Errorf("no samples at all: factor %v, want 1", got)
	}
	// A workload of which 40 % follows the processor takes 0.4*1.5 + 0.6 =
	// 1.2 times as long on the slow machine, not 1.5 times.
	if got := p.factor(0.4, at(1000), at(2000)); !near(got, 1/1.2) {
		t.Errorf("share 0.4 on the slow machine: factor %v, want 1/1.2", got)
	}
	if got := p.factor(0, at(1000), at(2000)); got != 1 {
		t.Errorf("work that never touches the processor: factor %v, want 1", got)
	}
}

func TestSpanTreeAndSelfTime(t *testing.T) {
	at := func(msOffset int) time.Time {
		return time.Unix(2000, 0).Add(time.Duration(msOffset) * time.Millisecond)
	}
	ev := func(t int, party int, protocol, instance, stage string) sintra.TraceEvent {
		return sintra.TraceEvent{Time: at(t), Party: party, Protocol: protocol, Instance: instance, Stage: stage, Seq: -1}
	}
	events := []sintra.TraceEvent{
		// Round 3 on party 0: a coded batch first, then the agreement.
		ev(0, 0, "rbc", "1/svc/bench/r3/batch", sintra.StageStart),
		ev(10, 0, "mvba", "svc/bench/r3", sintra.StageStart),
		ev(12, 0, "cbc", "0/m/svc/bench/r3", sintra.StageStart),
		ev(14, 0, "cbc", "1/m/svc/bench/r3", sintra.StageStart),
		ev(20, 0, "rbc", "1/svc/bench/r3/batch", sintra.StageDeliver),
		ev(30, 0, "cbc", "0/m/svc/bench/r3", sintra.StageDeliver),
		ev(40, 0, "cbc", "1/m/svc/bench/r3", sintra.StageDeliver),
		ev(50, 0, "aba", "svc/bench/r3/t0", sintra.StageStart),
		ev(80, 0, "aba", "svc/bench/r3/t0", sintra.StageDecide),
		ev(90, 0, "cbc", "2/m/svc/bench/r3", sintra.StageStart), // never delivers: dropped
		ev(100, 0, "mvba", "svc/bench/r3", sintra.StageDecide),
		// Round 4 on party 0 starts 7 ms after round 3 decided.
		ev(107, 0, "mvba", "svc/bench/r4", sintra.StageStart),
		ev(150, 0, "mvba", "svc/bench/r4", sintra.StageDecide),
		// Another party's round 3 must not mix in.
		ev(5, 1, "mvba", "svc/bench/r3", sintra.StageStart),
		ev(95, 1, "mvba", "svc/bench/r3", sintra.StageDecide),
		// The long-lived ordering instance is not a span.
		ev(101, 0, "abc", "svc/bench", sintra.StageDeliver),
	}
	set := buildSpans(events)
	if n := len(set.byProtocol["cbc"]); n != 2 {
		t.Fatalf("%d cbc spans, want 2 (the unfinished one is dropped)", n)
	}
	var mvba3, round3 *span
	for _, s := range set.byProtocol["mvba"] {
		if s.party == 0 && s.instance == "svc/bench/r3" {
			mvba3 = s
		}
	}
	for _, s := range set.rounds {
		if s.party == 0 && s.round == 3 {
			round3 = s
		}
	}
	if mvba3 == nil || round3 == nil {
		t.Fatal("round 3 spans of party 0 missing")
	}
	// mvba 10..100 with children cbc 12..30, cbc 14..40, aba 50..80:
	// covered 12..40 and 50..80 = 58 ms, self 32 ms.
	if len(mvba3.children) != 3 || mvba3.duration() != 90*time.Millisecond || mvba3.self() != 32*time.Millisecond {
		t.Errorf("mvba r3: %d children, duration %v, self %v; want 3, 90ms, 32ms", len(mvba3.children), mvba3.duration(), mvba3.self())
	}
	// round 0..100 with children rbc 0..20 and mvba 10..100: fully covered.
	if len(round3.children) != 2 || round3.duration() != 100*time.Millisecond || round3.self() != 0 {
		t.Errorf("round 3: %d children, duration %v, self %v; want 2, 100ms, 0", len(round3.children), round3.duration(), round3.self())
	}
	if gaps := set.roundGaps(); len(gaps) != 1 || gaps[0] != 7 {
		t.Errorf("round gaps %v, want [7]", gaps)
	}
	for _, c := range []struct {
		instance, key string
		round         int64
		ok            bool
	}{
		{"svc/bench/r17", "svc/bench/r17", 17, true},
		{"2/m/svc/bench/ord/r5", "svc/bench/ord/r5", 5, true},
		{"1/svc/bench/r9/batch", "svc/bench/r9", 9, true},
		{"svc/bench/r9/t1", "svc/bench/r9", 9, true},
		{"svc/bench", "", 0, false},
		{"svc/route/x", "", 0, false},
	} {
		key, round, ok := roundOf(c.instance)
		if key != c.key || round != c.round || ok != c.ok {
			t.Errorf("roundOf(%q) = %q, %d, %v; want %q, %d, %v", c.instance, key, round, ok, c.key, c.round, c.ok)
		}
	}
}

func TestOrderSplit(t *testing.T) {
	base := time.Unix(3000, 0)
	w := &workload{T: 1, Mode: sintra.ModeAtomic}
	deliver := func(party, msOffset int, seq int64) sintra.TraceEvent {
		return sintra.TraceEvent{Time: base.Add(time.Duration(msOffset) * time.Millisecond), Party: party,
			Protocol: "abc", Instance: "svc/" + serviceName, Stage: sintra.StageDeliver, Seq: seq}
	}
	events := []sintra.TraceEvent{deliver(0, 50, 9), deliver(1, 40, 9), deliver(2, 70, 9), deliver(0, 10, 8)}
	samples := []sample{
		{start: base, end: base.Add(80 * time.Millisecond), ans: sintra.Answer{Seq: 9}},
		{start: base, end: base.Add(80 * time.Millisecond), ans: sintra.Answer{Seq: 8}}, // one delivery: no (t+1)-th
	}
	order, answer := orderSplit(w, samples, events)
	// The second-fastest replica (t+1 = 2) delivered seq 9 at 50 ms.
	if len(order) != 1 || order[0] != 50 || answer[0] != 30 {
		t.Errorf("order %v answer %v, want [50] [30]", order, answer)
	}
}

func TestTrafficRowsSumToTotals(t *testing.T) {
	in := map[string]float64{"abc": 8, "mvba": 9.5, "aba": 35, "cbc": 13, "rbc": 2, "scabc": 4, "ckpt": 0.25, "client": 8, "gossip": 3, "x": 1}
	rows := trafficRows(in)
	if rows["checkpoint"] != 0.25 || rows["other"] != 4 || rows["ckpt"] != 0 {
		t.Errorf("rows %v: ckpt must report as checkpoint, unknown protocols as other", rows)
	}
	if math.Abs(sum(rows)-sum(in)) > 1e-9 {
		t.Errorf("rows sum to %v, input to %v", sum(rows), sum(in))
	}
	for p := range rows {
		if wireRow(p) != p {
			t.Errorf("row %q is not a declared wire protocol row", p)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	from := sintra.HistogramSnapshot{Buckets: []obs.Bucket{{Upper: 1024, Count: 10}}}
	to := sintra.HistogramSnapshot{Max: 4000, Buckets: []obs.Bucket{{Upper: 1024, Count: 10}, {Upper: 2048, Count: 100}, {Upper: 4096, Count: 100}}}
	// Only the increase counts: 100 in [1024,2048), 100 in [2048,4096).
	if got := histQuantile(from, to, 0.25); got != 1536 {
		t.Errorf("p25 = %v, want 1536 (middle of the first new bucket)", got)
	}
	if got := histQuantile(from, to, 0.75); got != 3072 {
		t.Errorf("p75 = %v, want 3072", got)
	}
	if got := histQuantile(to, to, 0.5); got != 0 {
		t.Errorf("no increase: %v, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 100}); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("spread = %v, want 0.10", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 100.5, 99.5, 100, 100}
	for _, c := range []struct {
		m      metric
		change []float64
		want   string
	}{
		{lower, []float64{105, 105, 105}, verdictOK},
		{lower, []float64{115, 115, 115}, verdictRegressed},
		{lower, []float64{80, 80, 80}, verdictOK},
		{higher, []float64{85, 85, 85}, verdictRegressed},
		{higher, []float64{120, 120, 120}, verdictOK},
		{lower, []float64{80, 100, 140, 90, 130}, verdictUnresolved},
	} {
		if got, _, _ := judge(c.m, steady, c.change); got != c.want {
			t.Errorf("judge(%s, %v) = %s, want %s", c.m.Name, c.change, got, c.want)
		}
	}
}

func TestRestate(t *testing.T) {
	res := &result{Metrics: map[string]value{}, Raw: map[string]float64{}}
	res.set("rs.encode_mb_s", 100)
	res.set("rbc.op_ms", 50)
	res.set("wal.append_durable_us", 2600)
	res.set("rs.encodes_per_req", 70)
	// A machine at 0.8 of the reference speed: the reference machine would
	// have needed 0.8 of the time and done 1/0.8 of the work per second.
	res.restate(perLayer, 0.8)
	if got := res.Metrics["rs.encode_mb_s"].Value; got != 125 {
		t.Errorf("rate restated as %v, want 125", got)
	}
	if got := res.Metrics["rbc.op_ms"].Value; got != 40 || res.Raw["rbc.op_ms"] != 50 {
		t.Errorf("duration restated as %v (raw %v), want 40 (raw 50)", got, res.Raw["rbc.op_ms"])
	}
	for _, name := range []string{"wal.append_durable_us", "rs.encodes_per_req"} {
		if _, scaled := res.Raw[name]; scaled {
			t.Errorf("%s must not be restated: the disk sets the one, the other is a count", name)
		}
	}
}

func TestEndToEndReportsTheMedianWindow(t *testing.T) {
	base := time.Unix(7000, 0)
	w := &workload{Share: 1}
	// Five one-second windows; the machine halves its speed for the third,
	// and a disturbance halves the work done in the fifth.
	p := &probe{}
	var measured []interval
	for i := 0; i < 5; i++ {
		from := base.Add(time.Duration(i) * time.Second)
		cost, requests := probeReferenceUs, 100
		if i == 2 {
			cost, requests = 2*probeReferenceUs, 50
		}
		if i == 4 {
			requests = 50
		}
		var iv interval
		iv.from.at, iv.to.at = from, from.Add(time.Second)
		iv.to.cpu = time.Duration(requests) * 10 * time.Millisecond * time.Duration(cost/probeReferenceUs)
		for k := 0; k < 5; k++ {
			p.samples = append(p.samples, probeSample{at: from.Add(time.Duration(100+200*k) * time.Millisecond), cost: cost})
		}
		for k := 0; k < requests; k++ {
			// Back to back, each as long as the window's rate allows.
			d := time.Second / time.Duration(requests)
			iv.samples = append(iv.samples, sample{start: from.Add(time.Duration(k) * d), end: from.Add(time.Duration(k+1)*d - time.Microsecond)})
		}
		measured = append(measured, iv)
	}
	res := &result{Metrics: map[string]value{}, Raw: map[string]float64{}}
	endToEndMetrics(w, measured, p, res)
	near := func(got, want float64) bool { return math.Abs(got-want) < 0.01*want }
	// Restated, the slow window did the same 100 requests a second as the
	// others; the disturbed window is outvoted.
	if got := res.Metrics["throughput_rps"].Value; !near(got, 100) {
		t.Errorf("throughput %v, want 100", got)
	}
	if got := res.Metrics["cpu_ms_per_req"].Value; !near(got, 10) {
		t.Errorf("cpu per request %v, want 10 ms", got)
	}
	// 250 of the 400 requests took 10 ms at reference speed (the slow
	// window's 20 ms restate to 10), the disturbed window's 50 took 20 ms.
	if got := res.Metrics["latency_p50_ms"].Value; !near(got, 10) {
		t.Errorf("p50 %v, want 10 ms", got)
	}
	if got := res.Metrics["latency_p95_ms"].Value; !near(got, 20) {
		t.Errorf("p95 %v, want 20 ms", got)
	}
	if res.Samples != 400 {
		t.Errorf("%d latency samples, want 400", res.Samples)
	}
}

func TestChainServiceRemembersItsPast(t *testing.T) {
	a, b := newChainService(), newChainService()
	for i, req := range []string{"x", "y", "z"} {
		ra := a.Apply(int64(i), []byte(req))
		if i < 2 {
			if rb := b.Apply(int64(i), []byte(req)); string(ra) != string(rb) {
				t.Fatalf("same requests, different answers at %d", i)
			}
		}
	}
	nb, sumB := b.state()
	if past, ok := a.at(nb); !ok || past != sumB {
		t.Errorf("replica a does not remember the state replica b stopped at")
	}
	// A snapshot install lands on the snapshot's state without the history before it.
	c := newChainService()
	if err := c.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n, sum := c.state(); n != 3 || sum != mustState(a) {
		t.Errorf("restored to %d requests, want 3 with a's digest", n)
	}
	if _, ok := c.at(2); ok {
		t.Error("a restored replica cannot vouch for states it never passed through")
	}
	if c.Restore([]byte("short")) == nil {
		t.Error("malformed snapshot accepted")
	}
}

func mustState(s *chainService) [32]byte {
	_, sum := s.state()
	return sum
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndCounts(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			check("metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository-root contract file and
// spec.go from drifting apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q / %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s metric %s: bound differs from spec.go (%v)", kind, m.Name, m.Bound)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}

// TestSmoke runs every workload for one second end to end, and the traced
// pass once, checking the correctness gate and the predicted-zero cells.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	tmp := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(w, 1, 1, false, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value", m.Name, v)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := run(findWorkload("small-closed"), 1, 2, true, tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("correct=false notes=%v", res.Notes)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("per-layer metric %s missing", m.Name)
			}
		}
		for _, zero := range []string{"rs.encodes_per_req", "wal.records_per_req", "engine.malformed", "client.bad_shares", "scabc.msgs_per_req", "other.msgs_per_req"} {
			if v := res.Metrics[zero].Value; v != 0 {
				t.Errorf("%s = %v on small-closed, predicted 0", zero, v)
			}
		}
		if v := res.Metrics["aba.msgs_per_req"].Value; v <= 0 {
			t.Errorf("aba.msgs_per_req = %v, want traffic", v)
		}
	})
}
