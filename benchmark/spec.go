package main

import (
	"time"

	"sintra"
)

// Every name in this file is part of the benchmark's contract: later
// performance and simplicity PRs are judged by these workloads and
// metrics, and BENCHMARK.json at the repository root must list exactly
// the same names (spec_test.go checks it).

// Fixed settings of every run.
const (
	groupBackend = "p256"  // pinned regardless of SINTRA_GROUP
	serviceName  = "bench" // instance tag of the replicated service
	maxProcs     = 2       // GOMAXPROCS pin (lowered to the CPU count)

	requestDeadline = 10 * time.Second // a slower answer counts as failed
	warmUp          = 2 * time.Second  // untimed lead-in on a cluster that is then measured for the whole run
	freshWarmUp     = 1 * time.Second  // the same on a cluster that serves one window (workload.Fresh)
	drainLimit      = 2 * time.Second  // bound on the post-load state drain
	setupRepeats    = 9                // set-ups before the first window; the median of all set-ups is reported

	// windows is the number of equal parts the measured interval is cut
	// into. Rates and per-request costs are computed per window and the
	// median window is reported, so a disturbance that lasts a few seconds
	// does not decide the run.
	windows = 5
)

// workload is one traffic shape against one deployment shape.
type workload struct {
	Name  string
	Why   string // one line, copied into BENCHMARK.json
	Shape string // human description printed with every result

	N, T     int
	Mode     sintra.Mode
	TCP      bool // loopback internal/transport instead of netsim
	WAL      bool // durable journal in a temp DataDir, default sync interval
	ReqBytes int

	// Closed loop: Outstanding requests in flight over Clients endpoints.
	Outstanding int
	Clients     int

	Crashed   []int // never started
	Byzantine []int // TamperTail(0.2) + Duplicate(1) on outbound traffic

	// Fresh gives every window its own newly built cluster. large-closed
	// needs it: at a moment chance picks, one replica falls more than two
	// rounds behind on the coded path and follows through checkpoint
	// installs from then on, which moves every number by 12-20 % for the
	// rest of that cluster's life (README.md). With a cluster per window the
	// episode spoils at most the window it starts in.
	Fresh bool

	// Share is the part of the workload's time, at the reference speed,
	// that follows the processor's speed as the machine probe does; the
	// rest is timers and the disk. It sets how far times are restated
	// (calib.go): 1 for the workloads that keep both CPUs busy, fitted to
	// the sandbox's own changes of speed for the one that waits (README.md).
	Share float64
}

// honest lists the replicas whose state digests must agree after the run.
func (w *workload) honest() []int {
	bad := map[int]bool{}
	for _, i := range w.Crashed {
		bad[i] = true
	}
	for _, i := range w.Byzantine {
		bad[i] = true
	}
	var out []int
	for i := 0; i < w.N; i++ {
		if !bad[i] {
			out = append(out, i)
		}
	}
	return out
}

var workloads = []workload{
	{
		Name:  "small-closed",
		Why:   "agreement-bound: coin/DLEQ, threshold-RSA and codec cost per 64 B request; rs, wal, threnc, transport idle",
		Shape: "netsim n=4 t=1 atomic, 64 B requests, closed loop, 8 outstanding over 2 clients, no WAL",
		N:     4, T: 1, Mode: sintra.ModeAtomic, ReqBytes: 64,
		Outstanding: 8, Clients: 2, Share: 1,
	},
	{
		Name:  "large-closed",
		Why:   "dissemination-bound: 48 KiB requests take the coded RBC path (SHA-256, rs, Merkle), same abc/rbc code as small-closed",
		Shape: "netsim n=4 t=1 atomic, 48 KiB requests (coded path, unchunked), closed loop, 8 outstanding over 2 clients, no WAL, a fresh cluster per window",
		N:     4, T: 1, Mode: sintra.ModeAtomic, ReqBytes: 48 << 10,
		Outstanding: 8, Clients: 2, Fresh: true, Share: 1,
	},
	{
		Name:  "durable-tcp-seq",
		Why:   "production shape at low load: one client, one request at a time over loopback TCP with the fsynced WAL; only wal/transport load",
		Shape: "loopback TCP n=4 t=1 atomic, WAL on (default sync interval), 256 B requests, closed loop, 1 outstanding from 1 client",
		N:     4, T: 1, Mode: sintra.ModeAtomic, ReqBytes: 256,
		TCP: true, WAL: true, Outstanding: 1, Clients: 1, Share: 0.4,
	},
	{
		Name:  "causal-n7-faulty",
		Why:   "headline setting: secure causal broadcast at n=7 with the fault budget spent (one crash, one Byzantine); only threnc/scabc load",
		Shape: "netsim n=7 t=2 secure-causal, 256 B requests, closed loop, 4 outstanding over 2 clients, server 6 crashed, server 5 Byzantine (TamperTail(0.2)+Duplicate(1))",
		N:     7, T: 2, Mode: sintra.ModeSecureCausal, ReqBytes: 256,
		Outstanding: 4, Clients: 2, Share: 1,
		Crashed: []int{6}, Byzantine: []int{5},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Scale  scaling
}

// scaling says how a metric follows the speed of the machine it was
// measured on, and so how it is restated at the reference speed (see
// calib.go for why anything is).
type scaling int

const (
	unscaled scaling = iota // counts, sizes, and times the disk or the harness sets
	duration                // processor-bound time: proportional to 1/speed
	rate                    // processor-bound work per time: proportional to speed
)

// endToEnd are the numbers a user of the deployment sees, measured with
// tracing off. fail_ratio is the eighth end-to-end number: it is printed
// with every result and carried by the result line's failed/attempted
// pair, because a metric that is 0 on the baseline cannot carry a
// relative bound (see README.md).
var endToEnd = []metric{
	{"throughput_rps", "req/s", "higher", 0.20, rate},
	{"latency_p50_ms", "ms", "lower", 0.25, duration},
	{"latency_p95_ms", "ms", "lower", 0.25, duration},
	{"cpu_ms_per_req", "ms", "lower", 0.20, duration},
	{"wire_kb_per_req", "KiB", "lower", 0.15, unscaled},
	{"msgs_per_req", "count", "lower", 0.20, unscaled},
	{"setup_s", "s", "lower", 0.25, duration},
}

// failRatioBound is fail_ratio's absolute bound.
const failRatioBound = 0.005

// wireProtocols are the per-protocol traffic rows; any other protocol
// name seen on the wire lands in "other" so the rows sum to the totals.
var wireProtocols = []string{"abc", "mvba", "aba", "cbc", "rbc", "scabc", "checkpoint", "client", "other"}

// wireRow maps a wire protocol name to its row ("ckpt" reports as
// "checkpoint").
func wireRow(protocol string) string {
	if protocol == "ckpt" {
		return "checkpoint"
	}
	for _, p := range wireProtocols {
		if p == protocol {
			return p
		}
	}
	return "other"
}

// tracedMetrics are group (a) of the per-layer metrics, from the traced
// workload run; driverMetrics are group (b), from the isolated drivers.
// perLayer is both, in print order.
var tracedMetrics, driverMetrics, perLayer = func() (a, b, all []metric) {
	var m []metric
	list := func(better string, scale scaling) func(unit string, names ...string) {
		return func(unit string, names ...string) {
			for _, n := range names {
				m = append(m, metric{Name: n, Unit: unit, Better: better, Scale: scale})
			}
		}
	}
	lower, higher, timed := list("lower", unscaled), list("higher", unscaled), list("lower", duration)

	lower("ratio", "fail_ratio")
	higher("ratio", "machine.speed")
	lower("%", "trace.overhead_pct")
	timed("ms", "client.order_ms_p50", "client.answer_ms_p50")
	lower("count", "client.bad_shares", "core.replica_lag_end")
	timed("us", "core.apply_us_per_req")
	timed("ms", "engine.verify_ms_per_req", "engine.apply_ms_per_req")
	lower("count", "engine.dispatched_per_req")
	timed("us", "engine.dispatch_p99_us")
	higher("count", "engine.verify_batch_fill")
	lower("count", "engine.malformed")
	higher("count", "abc.reqs_per_round")
	timed("ms", "abc.round_ms_p50", "abc.round_self_ms_p50", "abc.round_gap_ms_p50", "abc.order_ms_p50")
	higher("ratio", "abc.coded_share")
	timed("ms", "scabc.decrypt_ms_p50", "mvba.decide_ms_p50", "mvba.self_ms_p50", "aba.decide_ms_p50")
	lower("count", "aba.instances_per_round")
	timed("ms", "cbc.deliver_ms_p50", "rbc.deliver_ms_p50")
	lower("count", "rbc.req_retries")
	for _, p := range wireProtocols {
		lower("count", p+".msgs_per_req")
		lower("KiB", p+".bytes_per_req")
	}
	lower("count", "rs.encodes_per_req", "rs.reconstructs_per_req", "wal.records_per_req")
	lower("KiB", "wal.size_kb_end")
	higher("count", "checkpoint.certs", "checkpoint.gc_freed")
	lower("count", "netsim.pending_depth_max", "transport.flushes_per_req", "transport.queue_depth_max")
	lower("count", "process.allocs_per_req")
	lower("KiB", "process.alloc_kb_per_req")
	lower("MiB", "process.heap_inuse_mb_end")
	a, m = m, nil

	// Kernels, then one protocol instance at a time: alone on the machine,
	// so always processor-bound.
	timed("us", "group.exp_us", "group.multiexp2_us", "dleq.prove_us", "dleq.verify_us",
		"coin.release_us", "coin.verify_us", "coin.combine_us",
		"thresig.sign_us", "thresig.verify_us", "thresig.combine_us",
		"threnc.encrypt_us", "threnc.decshare_us", "threnc.verify_us", "threnc.combine_us",
		"identity.sign_us", "identity.verify_us",
		"wire.encode_us", "wire.decode_us", "wire.decode_64k_us")
	list("higher", rate)("MB/s", "rs.encode_mb_s", "rs.reconstruct_mb_s")
	timed("us", "rs.merkle_64k_us", "wal.append_us")
	lower("us", "wal.append_durable_us") // the disk sets it
	timed("ns", "trust.isquorum_ns")
	timed("ms", "rbc.op_ms", "rbc.coded_op_ms", "cbc.op_ms", "aba.op_ms", "mvba.op_ms", "abc.op_ms", "scabc.op_ms")
	return a, m, append(append([]metric(nil), a...), m...)
}()
