package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sintra"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Speed     float64            `json:"machine_speed"` // mean over the measured windows; see calib.go
	Raw       map[string]float64 `json:"raw"`           // as measured, before restating at the reference speed
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`     // latency samples behind p50/p95
	Lag       int64              `json:"replica_lag"` // most requests an honest replica lacked after a drain
	Tail      float64            `json:"supported_tail"`
	Metrics   map[string]value   `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

// restate puts the listed time-based metrics at the reference machine
// speed, keeping what was measured in Raw. factor is probe.factor over the
// span they were measured in.
func (r *result) restate(list []metric, factor float64) {
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok || m.Scale == unscaled {
			continue
		}
		r.Raw[m.Name] = v.Value
		if m.Scale == duration {
			v.Value *= factor
		} else {
			v.Value /= factor
		}
		r.Metrics[m.Name] = v
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) failRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// reading is the process and registry state at one instant.
type reading struct {
	at   time.Time
	cpu  time.Duration // user+sys of the whole process: every replica and client
	snap sintra.MetricsSnapshot
	mem  runtime.MemStats
}

func read(reg *sintra.Registry) reading {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	r := reading{
		at:   time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		snap: reg.Snapshot(),
	}
	runtime.ReadMemStats(&r.mem)
	return r
}

// interval is a span between two readings with the samples that belong
// to it: the requests that finished between the readings. start and stop
// are the instants the readings are due.
type interval struct {
	start, stop time.Time
	from, to    reading
	samples     []sample
}

// measure sleeps until the interval opens, reads, sleeps until it closes
// and reads again.
func (iv *interval) measure(reg *sintra.Registry) {
	time.Sleep(time.Until(iv.start))
	iv.from = read(reg)
	time.Sleep(time.Until(iv.stop))
	iv.to = read(reg)
}

func (iv *interval) seconds() float64 { return iv.to.at.Sub(iv.from.at).Seconds() }

// counter returns a counter's increase over the interval.
func (iv *interval) counter(name string) float64 {
	return float64(iv.to.snap.Counter(name) - iv.from.snap.Counter(name))
}

// byProtocol returns the per-protocol increase of a counter family.
func (iv *interval) byProtocol(prefix string) map[string]float64 {
	out := map[string]float64{}
	before := iv.from.snap.CountersWithPrefix(prefix)
	for p, v := range iv.to.snap.CountersWithPrefix(prefix) {
		out[p] = float64(v - before[p])
	}
	return out
}

// traffic returns the messages and bytes delivered between endpoints over
// the interval, per wire protocol.
func (iv *interval) traffic(w *workload) (msgs, bytes map[string]float64) {
	if w.TCP {
		return iv.byProtocol("transport.sent.msgs."), iv.byProtocol("transport.sent.bytes.")
	}
	return iv.byProtocol("net.msgs."), iv.byProtocol("net.bytes.")
}

// assign gives the interval the requests that finished between its readings.
func (iv *interval) assign(all []sample) {
	for _, s := range all {
		if !s.end.Before(iv.from.at) && s.end.Before(iv.to.at) {
			iv.samples = append(iv.samples, s)
		}
	}
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(m map[string]float64) (total float64) {
	for _, v := range m {
		total += v
	}
	return total
}

// drive loads one cluster: a lead-in of lead, then n back-to-back
// intervals of length each, then the requests in flight finish. before, if
// set, runs ahead of interval i (the traced pass switches tracing on with
// it). It returns the intervals, with their samples assigned and the
// correctness gate applied, and whether the gate passed.
func drive(c *cluster, seed int64, lead, length time.Duration, n int, before func(i int), res *result) ([]interval, bool) {
	g := &loadgen{c: c, seed: seed}
	stop, done := make(chan struct{}), make(chan struct{})
	begin := time.Now()
	go func() {
		defer close(done)
		g.runClosed(stop)
	}()
	ivs := make([]interval, n)
	for i := range ivs {
		ivs[i].start = begin.Add(lead + time.Duration(i)*length)
		ivs[i].stop = ivs[i].start.Add(length)
		if before != nil {
			before(i)
		}
		ivs[i].measure(c.reg)
	}
	close(stop)
	<-done
	// Everything below is outside the timed intervals.
	correct := gate(c, g.samples, res)
	for i := range ivs {
		ivs[i].assign(g.samples)
	}
	return ivs, correct
}

// run executes one workload. End to end: repeated set-up, then the
// measured interval in `windows` parts, on one cluster after one warm-up
// or, for a Fresh workload, each on a cluster of its own. Traced: an
// untraced half and a traced half on one cluster, then the isolated
// drivers. The correctness gate follows every cluster's load.
func run(w *workload, seed int64, seconds float64, trace bool, tmp string) (*result, error) {
	length := time.Duration(seconds * float64(time.Second))
	clusters, parts, lead := 1, windows, warmUp
	switch {
	case trace:
		parts = 2
	case w.Fresh:
		clusters, parts, lead = windows, 1, freshWarmUp
	}
	part := length / time.Duration(clusters*parts)
	if length < 2*warmUp {
		lead = part / 2 // smoke runs
	}
	res := &result{
		Workload: w.Name, Trace: trace, Env: stamp(seed, lead, length),
		Metrics: map[string]value{}, Raw: map[string]float64{},
	}
	machine := startProbe()
	defer machine.close()

	// Every set-up of the run is timed and the median reported, so one slow
	// deal or dial does not decide it.
	var c *cluster
	var dir string
	var setups []interval // start and stop only
	discard := func() {
		if c != nil {
			c.stop()
			os.RemoveAll(dir)
			c = nil
		}
	}
	defer discard()
	build := func(seed int64) (err error) {
		discard()
		began := time.Now()
		var took time.Duration
		if c, dir, took, err = setUp(w, seed, trace, tmp); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, interval{start: began, stop: began.Add(took)})
		return nil
	}
	for i := 0; i < setupRepeats; i++ {
		if err := build(seed); err != nil {
			return nil, err
		}
	}

	var tracer *sintra.CollectTracer
	var measured []interval
	correct := true
	for k := 0; k < clusters; k++ {
		if k > 0 {
			if err := build(seed + int64(k)<<32); err != nil {
				return nil, err
			}
		}
		var before func(int)
		if trace {
			// Untraced half, then traced half, on the same warm cluster: the
			// throughput difference is the tracing overhead.
			before = func(i int) {
				if i == 1 {
					tracer = sintra.NewCollectTracer()
					c.reg.SetTracer(tracer)
				}
			}
		}
		ivs, ok := drive(c, seed+int64(k)<<32, lead, part, parts, before, res)
		c.reg.SetTracer(nil)
		measured = append(measured, ivs...)
		correct = correct && ok
	}
	first, last := &measured[0], &measured[len(measured)-1]
	res.Speed = machine.factor(1, first.from.at, last.to.at)
	if costs := machine.costs(first.from.at, last.to.at); len(costs) > 0 {
		res.note("machine probe: %d samples, cost p10 %.0f p50 %.0f p90 %.0f us (reference %.0f)", len(costs),
			percentile(costs, 0.1), percentile(costs, 0.5), percentile(costs, 0.9), probeReferenceUs)
	}

	counted := measured
	if trace {
		counted = measured[1:] // the traced half
	}
	for i := range counted {
		res.Attempted += len(counted[i].samples)
		for _, s := range counted[i].samples {
			if s.bad {
				res.Failed++
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, res.Failed+1
		res.note("no request finished inside the measured interval")
	}
	if trace {
		reference, iv := &measured[0], &measured[1]
		res.set("fail_ratio", res.failRatio())
		res.set("machine.speed", res.Speed)
		res.set("core.replica_lag_end", float64(res.Lag))
		traced(c, iv, reference, tracer.Events(), res)
		res.restate(tracedMetrics, machine.factor(w.Share, iv.from.at, iv.to.at))
		began := time.Now()
		if err := layers(tmp, res); err != nil {
			return nil, err
		}
		res.restate(driverMetrics, machine.factor(1, began, time.Now()))
	} else {
		endToEndMetrics(w, measured, machine, res)
		var took, raw []float64
		for _, s := range setups {
			d := s.stop.Sub(s.start).Seconds()
			raw = append(raw, d)
			took = append(took, d*machine.factor(w.Share, s.start.Add(-probeEvery), s.stop.Add(probeEvery)))
		}
		res.set("setup_s", median(took))
		res.Raw["setup_s"] = median(raw)
	}
	res.Correct = correct && res.Failed == 0
	return res, nil
}

// gate is the correctness check, run over every request of the run,
// warm-up and drain included: each answer carries a valid threshold
// signature, sequence numbers are distinct, and the honest replicas agree
// on every state they reached (see settle). It marks the offending
// samples bad, so those inside the measured interval count as failed
// requests, and charges a state divergence as one more failure.
func gate(c *cluster, all []sample, res *result) bool {
	correct := true
	seqs := map[int64]bool{}
	var answered int64
	for i := range all {
		s := &all[i]
		switch {
		case s.err != nil:
			s.bad = true
			if len(res.Notes) < 3 {
				res.note("request failed: %v", s.err)
			}
			continue
		case c.verify(s.ans) != nil:
			s.bad, correct = true, false
			res.note("answer for sequence number %d fails VerifyAnswer", s.ans.Seq)
		case seqs[s.ans.Seq]:
			s.bad, correct = true, false
			res.note("sequence number %d answered twice", s.ans.Seq)
		}
		seqs[s.ans.Seq] = true
		answered++
	}
	lag, err := c.settle(answered + 1) // +1: the set-up request
	if err != nil {
		correct = false
		res.Failed++
		res.note("%v", err)
	}
	res.Lag = max(res.Lag, lag)
	if lag > 0 {
		res.note("an honest replica ended its cluster's load %d requests behind (it catches up at the next checkpoint); its state matches the others' at the point it reached", lag)
	}
	return correct
}

// latencies returns the sorted latencies (ms) of the correctly answered
// requests among samples.
func latencies(samples []sample) (lat []float64) {
	for i := range samples {
		if s := &samples[i]; !s.bad {
			lat = append(lat, ms(s.latency()))
		}
	}
	sort.Float64s(lat)
	return lat
}

// endToEndMetrics fills in what a user of the deployment sees. Throughput
// and CPU time per request are computed per window, restated with the
// window's machine speed, and the median window is reported. Latencies are
// restated request by request, with the speed during the request's life,
// and the percentiles taken over the whole run. Traffic per request is the
// whole run's traffic over the whole run's requests: counts do not feel
// the machine, and what happens once in several windows (a checkpoint)
// must not drop out of them.
func endToEndMetrics(w *workload, measured []interval, machine *probe, res *result) {
	var throughput, cpu, rawThroughput, rawCPU, speeds, lat, rawLat []float64
	var completed, msgs, bytes float64
	for i := range measured {
		iv := &measured[i]
		n := float64(len(latencies(iv.samples)))
		if n == 0 {
			continue // nothing to divide by: the window reports nothing
		}
		factor := machine.factor(w.Share, iv.from.at, iv.to.at)
		speeds = append(speeds, machine.factor(1, iv.from.at, iv.to.at))
		rawThroughput = append(rawThroughput, n/iv.seconds())
		rawCPU = append(rawCPU, ms(iv.to.cpu-iv.from.cpu)/n)
		throughput = append(throughput, n/iv.seconds()/factor)
		cpu = append(cpu, ms(iv.to.cpu-iv.from.cpu)/n*factor)
		m, b := iv.traffic(w)
		completed, msgs, bytes = completed+n, msgs+sum(m), bytes+sum(b)
		for j := range iv.samples {
			if s := &iv.samples[j]; !s.bad {
				l := ms(s.latency())
				rawLat = append(rawLat, l)
				lat = append(lat, l*machine.factor(w.Share, s.start.Add(-probeEvery), s.end.Add(probeEvery)))
			}
		}
	}
	sort.Float64s(lat)
	sort.Float64s(rawLat)
	res.Samples = len(lat)
	res.Tail = supportedTail(len(lat))
	if res.Tail < 0.95 {
		res.note("only %d latency samples: fewer than ten lie beyond p95, read it as p%.0f", len(lat), res.Tail*100)
	}
	res.set("throughput_rps", median(throughput))
	res.set("latency_p50_ms", percentile(lat, 0.50))
	res.set("latency_p95_ms", percentile(lat, 0.95))
	res.set("cpu_ms_per_req", median(cpu))
	res.set("wire_kb_per_req", ratio(bytes/1024, completed))
	res.set("msgs_per_req", ratio(msgs, completed))
	res.Raw["throughput_rps"] = median(rawThroughput)
	res.Raw["latency_p50_ms"] = percentile(rawLat, 0.50)
	res.Raw["latency_p95_ms"] = percentile(rawLat, 0.95)
	res.Raw["cpu_ms_per_req"] = median(rawCPU)
	res.note("per window: machine speed %.2f, throughput %.1f req/s (measured %.1f), cpu %.1f ms/req (measured %.1f)",
		speeds, throughput, rawThroughput, cpu, rawCPU)
}
