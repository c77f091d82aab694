package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sintra"
)

// The program emits start and deliver/decide events per protocol
// instance; the benchmark builds the spans from them. Instance names are
// hierarchical, which gives the parent:
//
//	svc/bench/r17            mvba: agreement of round 17 (svc/bench/ord/r17 under scabc)
//	2/m/svc/bench/r17        cbc:  party 2's proposal inside that agreement
//	svc/bench/r17/t0         aba:  its first binary agreement
//	1/svc/bench/r17/batch    rbc:  party 1's coded batch of round 17
//
// Everything of one round on one party hangs under a synthesized "round"
// span that runs from the round's first event to its agreement's decide.

// span is one protocol instance on one party.
type span struct {
	party      int
	protocol   string
	instance   string
	start, end time.Time
	round      int64 // synthesized round spans only
	children   []*span
}

func (s *span) duration() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration minus the part its children cover.
func (s *span) self() time.Duration {
	type iv struct{ from, to time.Time }
	var ivs []iv
	for _, c := range s.children {
		from, to := c.start, c.end
		if from.Before(s.start) {
			from = s.start
		}
		if to.After(s.end) {
			to = s.end
		}
		if to.After(from) {
			ivs = append(ivs, iv{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	covered := time.Duration(0)
	var edge time.Time // end of the covered prefix
	for _, v := range ivs {
		if v.from.After(edge) {
			edge = v.from
		}
		if v.to.After(edge) {
			covered += v.to.Sub(edge)
			edge = v.to
		}
	}
	return s.duration() - covered
}

// roundOf extracts the round key ("svc/bench/r17") and number from an
// instance name, or ok=false for instances outside any round.
func roundOf(instance string) (key string, round int64, ok bool) {
	at := strings.Index(instance, "svc/")
	if at < 0 {
		return "", 0, false
	}
	parts := strings.Split(instance[at:], "/")
	for i, p := range parts {
		if len(p) > 1 && p[0] == 'r' {
			if r, err := strconv.ParseInt(p[1:], 10, 64); err == nil {
				return strings.Join(parts[:i+1], "/"), r, true
			}
		}
	}
	return "", 0, false
}

// spanProtocols are the one-shot protocols: one start, one terminal event.
var spanProtocols = map[string]bool{"rbc": true, "cbc": true, "aba": true, "mvba": true}

type spanKey struct {
	party    int
	protocol string
	instance string
}

type roundKey struct {
	party int
	key   string
}

// spanSet is every completed span of a trace.
type spanSet struct {
	byProtocol map[string][]*span
	rounds     []*span // synthesized, protocol "round"
}

// buildSpans pairs start events with their deliver/decide event and links
// the tree. Instances that never finished inside the trace are dropped.
func buildSpans(events []sintra.TraceEvent) *spanSet {
	open := map[spanKey]*span{}
	set := &spanSet{byProtocol: map[string][]*span{}}
	firstInRound := map[roundKey]time.Time{}
	var done []*span
	for _, ev := range events {
		if !spanProtocols[ev.Protocol] {
			continue
		}
		k := spanKey{ev.Party, ev.Protocol, ev.Instance}
		switch ev.Stage {
		case sintra.StageStart:
			open[k] = &span{party: ev.Party, protocol: ev.Protocol, instance: ev.Instance, start: ev.Time}
			if key, _, ok := roundOf(ev.Instance); ok {
				rk := roundKey{ev.Party, key}
				if t, seen := firstInRound[rk]; !seen || ev.Time.Before(t) {
					firstInRound[rk] = ev.Time
				}
			}
		case sintra.StageDeliver, sintra.StageDecide:
			if s := open[k]; s != nil {
				s.end = ev.Time
				delete(open, k)
				done = append(done, s)
			}
		}
	}
	// Round spans: first event of the round on that party to the decide of
	// its agreement (the mvba instance named exactly by the round key).
	rounds := map[roundKey]*span{}
	for _, s := range done {
		if key, no, ok := roundOf(s.instance); ok && s.protocol == "mvba" && s.instance == key {
			rk := roundKey{s.party, key}
			r := &span{party: s.party, protocol: "round", instance: key, start: firstInRound[rk], end: s.end, round: no}
			rounds[rk] = r
			set.rounds = append(set.rounds, r)
		}
	}
	mvbas := map[roundKey]*span{}
	for _, s := range done {
		set.byProtocol[s.protocol] = append(set.byProtocol[s.protocol], s)
		if s.protocol == "mvba" {
			mvbas[roundKey{s.party, s.instance}] = s
		}
	}
	for _, s := range done {
		key, _, ok := roundOf(s.instance)
		if !ok {
			continue
		}
		rk := roundKey{s.party, key}
		var parent *span
		switch s.protocol {
		case "cbc", "aba":
			parent = mvbas[rk]
		case "mvba", "rbc":
			parent = rounds[rk]
		}
		if parent != nil && parent != s {
			parent.children = append(parent.children, s)
		}
	}
	return set
}

func durationsMs(spans []*span, of func(*span) time.Duration) []float64 {
	out := make([]float64, 0, len(spans))
	for _, s := range spans {
		out = append(out, ms(of(s)))
	}
	return out
}

// roundGaps returns, per party, the time from one round's decide to the
// start of the next round: what pipelining rounds would overlap.
func (set *spanSet) roundGaps() []float64 {
	byParty := map[int][]*span{}
	for _, r := range set.rounds {
		byParty[r.party] = append(byParty[r.party], r)
	}
	var gaps []float64
	for _, rs := range byParty {
		sort.Slice(rs, func(i, j int) bool { return rs[i].round < rs[j].round })
		for i := 1; i < len(rs); i++ {
			if rs[i].round == rs[i-1].round+1 {
				gaps = append(gaps, ms(rs[i].start.Sub(rs[i-1].end)))
			}
		}
	}
	return gaps
}

// histQuantile estimates a quantile of a log-scale histogram's increase
// over an interval, interpolating linearly inside the bucket it falls in.
func histQuantile(from, to sintra.HistogramSnapshot, q float64) float64 {
	before := map[int64]int64{}
	for _, b := range from.Buckets {
		before[b.Upper] = b.Count
	}
	var total int64
	for _, b := range to.Buckets {
		total += b.Count - before[b.Upper]
	}
	if total <= 0 {
		return 0
	}
	want := q * float64(total)
	var cum float64
	for _, b := range to.Buckets {
		n := float64(b.Count - before[b.Upper])
		if n > 0 && cum+n >= want {
			lower := float64(b.Upper) / 2
			if b.Upper <= 1 {
				lower = 0
			}
			return lower + (float64(b.Upper)-lower)*(want-cum)/n
		}
		cum += n
	}
	return float64(to.Max)
}

// trafficRows folds per-wire-protocol totals into the reported rows;
// nothing is dropped, so the rows sum to the input's total.
func trafficRows(byProtocol map[string]float64) map[string]float64 {
	rows := map[string]float64{}
	for p, v := range byProtocol {
		rows[wireRow(p)] += v
	}
	return rows
}

// histSum returns the increase of a histogram's sum over the interval.
func histSum(iv *interval, name string) float64 {
	return float64(iv.to.snap.Histograms[name].Sum - iv.from.snap.Histograms[name].Sum)
}

// histP returns a quantile of a histogram's increase over the interval.
func histP(iv *interval, name string, q float64) float64 {
	return histQuantile(iv.from.snap.Histograms[name], iv.to.snap.Histograms[name], q)
}

// orderSplit divides each answered request's latency at the moment the
// (t+1)-th replica delivered its sequence number: before is ordering,
// after is apply + answer share + verify + combine.
func orderSplit(w *workload, samples []sample, events []sintra.TraceEvent) (order, answer []float64) {
	protocol := "abc"
	if w.Mode == sintra.ModeSecureCausal {
		protocol = "scabc"
	}
	delivered := map[int64][]time.Time{}
	for _, ev := range events {
		if ev.Protocol == protocol && ev.Stage == sintra.StageDeliver && ev.Instance == "svc/"+serviceName {
			delivered[ev.Seq] = append(delivered[ev.Seq], ev.Time)
		}
	}
	for i := range samples {
		s := &samples[i]
		times := delivered[s.ans.Seq]
		if s.err != nil || len(times) <= w.T {
			continue
		}
		sort.Slice(times, func(a, b int) bool { return times[a].Before(times[b]) })
		at := times[w.T]
		if at.Before(s.start) || at.After(s.end) {
			continue
		}
		order = append(order, ms(at.Sub(s.start)))
		answer = append(answer, ms(s.end.Sub(at)))
	}
	return order, answer
}

// traced fills in group (a) of the per-layer metrics from the traced half
// of the run: registry counters and histograms over that half, and spans
// built from its trace events. reference is the untraced half.
func traced(c *cluster, iv, reference *interval, events []sintra.TraceEvent, res *result) {
	w := c.w
	lat := latencies(iv.samples)
	completed := float64(len(lat))
	per := func(total float64) float64 { return ratio(total, completed) }

	base := float64(len(latencies(reference.samples))) / reference.seconds()
	res.set("trace.overhead_pct", 100*ratio(base-completed/iv.seconds(), base))

	order, answer := orderSplit(w, iv.samples, events)
	res.set("client.order_ms_p50", median(order))
	res.set("client.answer_ms_p50", median(answer))
	res.set("client.bad_shares", iv.counter("client.responses.badshare"))

	res.set("core.apply_us_per_req", per(histSum(iv, "node.apply.latency")/1e3))
	res.set("engine.verify_ms_per_req", per(histSum(iv, "engine.verify.latency")/1e6))
	res.set("engine.apply_ms_per_req", per(histSum(iv, "engine.apply.latency")/1e6))
	res.set("engine.dispatched_per_req", per(iv.counter("router.dispatched")))
	res.set("engine.dispatch_p99_us", histP(iv, "router.dispatch.latency", 0.99)/1e3)
	res.set("engine.verify_batch_fill", ratio(iv.counter("engine.verify.batch.messages"), iv.counter("engine.verify.batch.batches")))
	res.set("engine.malformed", iv.counter("router.malformed"))

	set := buildSpans(events)
	live := float64(w.N - len(w.Crashed))
	res.set("abc.reqs_per_round", ratio(iv.counter("abc.deliver"), iv.counter("mvba.decide")))
	res.set("abc.round_ms_p50", median(durationsMs(set.rounds, (*span).duration)))
	res.set("abc.round_self_ms_p50", median(durationsMs(set.rounds, (*span).self)))
	res.set("abc.round_gap_ms_p50", median(set.roundGaps()))
	res.set("abc.order_ms_p50", histP(iv, "abc.latency.order", 0.5)/1e6)
	// Every live replica receives each proposal once, so received/live is
	// the number of proposals broadcast.
	res.set("abc.coded_share", ratio(iv.counter("abc.coded.proposals"), iv.counter("router.recv.abc.PROPOSAL")/live))
	res.set("scabc.decrypt_ms_p50", histP(iv, "scabc.latency.decrypt", 0.5)/1e6)
	res.set("mvba.decide_ms_p50", median(durationsMs(set.byProtocol["mvba"], (*span).duration)))
	res.set("mvba.self_ms_p50", median(durationsMs(set.byProtocol["mvba"], (*span).self)))
	res.set("aba.decide_ms_p50", median(durationsMs(set.byProtocol["aba"], (*span).duration)))
	res.set("aba.instances_per_round", ratio(float64(len(set.byProtocol["aba"])), float64(len(set.byProtocol["mvba"]))))
	res.set("cbc.deliver_ms_p50", median(durationsMs(set.byProtocol["cbc"], (*span).duration)))
	res.set("rbc.deliver_ms_p50", median(durationsMs(set.byProtocol["rbc"], (*span).duration)))
	res.set("rbc.req_retries", iv.counter("rbc.req.retries"))

	msgs, bytes := iv.traffic(w)
	rowMsgs, rowBytes := trafficRows(msgs), trafficRows(bytes)
	for _, p := range wireProtocols {
		res.set(p+".msgs_per_req", per(rowMsgs[p]))
		res.set(p+".bytes_per_req", per(rowBytes[p]/1024))
	}
	res.note("per-protocol rows sum to %.2f msgs/req and %.2f KiB/req (compare msgs_per_req, wire_kb_per_req)",
		per(sum(rowMsgs)), per(sum(rowBytes)/1024))

	res.set("rs.encodes_per_req", per(iv.counter("rs.encodes")))
	res.set("rs.reconstructs_per_req", per(iv.counter("rs.reconstructs")))
	res.set("wal.records_per_req", per(iv.counter("wal.records")))
	res.set("wal.size_kb_end", float64(c.walBytes())/1024)
	res.set("checkpoint.certs", iv.counter("checkpoint.certs"))
	res.set("checkpoint.gc_freed", iv.counter("checkpoint.gc.freed"))
	res.set("netsim.pending_depth_max", float64(iv.to.snap.Gauges["net.pending.depth"].Max))
	res.set("transport.flushes_per_req", per(iv.counter("transport.flushes")))
	res.set("transport.queue_depth_max", float64(iv.to.snap.Gauges["transport.queue.depth"].Max))

	res.set("process.allocs_per_req", per(float64(iv.to.mem.Mallocs-iv.from.mem.Mallocs)))
	res.set("process.alloc_kb_per_req", per(float64(iv.to.mem.TotalAlloc-iv.from.mem.TotalAlloc)/1024))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("process.heap_inuse_mb_end", float64(mem.HeapInuse)/(1<<20))

	res.Samples = len(lat)
	res.Tail = supportedTail(len(lat))
}
