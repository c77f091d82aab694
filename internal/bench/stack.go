package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/mvba"
	"sintra/internal/obs"
	"sintra/internal/rbc"
	"sintra/internal/scabc"
	"sintra/internal/testutil"
)

// StackRow is one measurement of experiment S3 (the §3 protocol-stack
// layer diagram): the cost of delivering one payload at one layer.
type StackRow struct {
	Layer      string
	N, T, Ops  int
	MsgsPer    float64
	BytesPerOp float64
	LatencyPer time.Duration
	// LayerP50/LayerP99 are percentiles of the layer's own latency
	// histogram (instance start to deliver/decide, aggregated over all
	// parties), from the observability registry.
	LayerP50 time.Duration
	LayerP99 time.Duration
	// DispatchP99 is the 99th percentile of single-message dispatch time
	// in the router, across all parties.
	DispatchP99 time.Duration
}

// stackLayers lists the measured layers, bottom to top.
var stackLayers = []string{"rbc", "cbc", "aba", "mvba", "abc", "scabc"}

// layerHist names the latency histogram that characterizes each layer:
// deliver for the broadcasts, decide for the agreements, submit-to-order
// for atomic broadcast, order-to-plaintext for its secure causal variant.
var layerHist = map[string]string{
	"rbc":   "rbc.latency.deliver",
	"cbc":   "cbc.latency.deliver",
	"aba":   "aba.latency.decide",
	"mvba":  "mvba.latency.decide",
	"abc":   "abc.latency.order",
	"scabc": "scabc.latency.decrypt",
}

// RunStack measures message/byte/latency cost per delivered payload for
// every layer of the broadcast stack, at each system size in ns.
// The payload is 256 bytes; ops operations are averaged per layer.
func RunStack(ns []int, ops int) ([]StackRow, error) {
	var rows []StackRow
	for _, n := range ns {
		t := (n - 1) / 3
		st, err := adversary.NewThreshold(n, t)
		if err != nil {
			return nil, err
		}
		for _, layer := range stackLayers {
			row, err := runStackLayer(st, layer, ops)
			if err != nil {
				return nil, fmt.Errorf("layer %s n=%d: %w", layer, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunLayer measures one layer at one threshold system size — the entry
// point of the repository-root benchmarks.
func RunLayer(n int, layer string, ops int) (StackRow, error) {
	st, err := adversary.NewThreshold(n, (n-1)/3)
	if err != nil {
		return StackRow{}, err
	}
	return runStackLayer(st, layer, ops)
}

// runStackLayer measures one layer on a fresh cluster: ops operations,
// each timed until every party has delivered or decided. The atomic
// broadcasts' instances are created once, inside the timed window; the
// lower layers run one instance per operation.
func runStackLayer(st *adversary.Structure, layer string, ops int) (StackRow, error) {
	reg := obs.NewRegistry()
	c, err := testutil.New(st, testutil.Options{Group: benchGroup, Registry: reg})
	if err != nil {
		return StackRow{}, err
	}
	defer c.Stop()

	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	n := st.N()
	var delivered atomic.Int64

	// op starts operation k.
	var op func(k int) error
	start := time.Now()
	switch layer {
	case "rbc":
		op = func(k int) error {
			var sender *rbc.RBC
			c.Each(func(i int) {
				cfg := c.RBC(i)
				cfg.Instance, cfg.Sender = rbc.InstanceID(0, fmt.Sprintf("op%d", k)), 0
				cfg.Deliver = func([]byte) { delivered.Add(1) }
				if inst := rbc.New(cfg); i == 0 {
					sender = inst
				}
			})
			return sender.Start(payload)
		}
	case "cbc":
		op = func(k int) error {
			var sender *cbc.CBC
			c.Each(func(i int) {
				cfg := c.CBC(i)
				cfg.Instance, cfg.Sender = cbc.InstanceID(0, fmt.Sprintf("op%d", k)), 0
				cfg.Deliver = func([]byte, []byte) { delivered.Add(1) }
				if inst := cbc.New(cfg); i == 0 {
					sender = inst
				}
			})
			return sender.Start(payload)
		}
	case "aba":
		op = func(k int) error {
			insts := make(map[int]*aba.ABA, n)
			c.Each(func(i int) {
				cfg := c.ABA(i)
				cfg.Instance = fmt.Sprintf("op%d", k)
				cfg.Decide = func(bool) { delivered.Add(1) }
				insts[i] = aba.New(cfg)
			})
			for i, inst := range insts {
				if err := inst.Start(i%2 == 0); err != nil {
					return err
				}
			}
			return nil
		}
	case "mvba":
		op = func(k int) error {
			insts := make(map[int]*mvba.MVBA, n)
			c.Each(func(i int) {
				cfg := c.MVBA(i)
				cfg.Instance = fmt.Sprintf("op%d", k)
				cfg.Decide = func([]byte) { delivered.Add(1) }
				insts[i] = mvba.New(cfg)
			})
			for i, inst := range insts {
				if err := inst.Start(append(payload, byte(i))); err != nil {
					return err
				}
			}
			return nil
		}
	case "abc":
		insts := startABC(c, "bench", &delivered, nil)
		op = func(k int) error { return insts[0].Broadcast(append(payload, byte(k))) }
	case "scabc":
		insts := make(map[int]*scabc.SCABC, n)
		c.Each(func(i int) {
			cfg := c.SCABC(i)
			cfg.Instance = "bench"
			cfg.Deliver = func(int64, []byte) { delivered.Add(1) }
			insts[i] = scabc.New(cfg)
		})
		op = func(k int) error {
			ct, err := scabc.Encrypt(c.Pub.Enc, "bench", append(payload, byte(k)))
			if err != nil {
				return err
			}
			return insts[0].Submit(ct)
		}
	default:
		return StackRow{}, fmt.Errorf("bench: unknown layer %q", layer)
	}
	for k := 0; k < ops; k++ {
		if err := op(k); err != nil {
			return StackRow{}, err
		}
		if err := waitCount(&delivered, (k+1)*n); err != nil {
			return StackRow{}, err
		}
	}
	elapsed := time.Since(start)

	msgs, bytes := c.Net.Stats().Total()
	snap := reg.Snapshot()
	lh := snap.Histograms[layerHist[layer]]
	dh := snap.Histograms["router.dispatch.latency"]
	return StackRow{
		Layer:       layer,
		N:           n,
		T:           st.Thresh,
		Ops:         ops,
		MsgsPer:     float64(msgs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		LatencyPer:  elapsed / time.Duration(ops),
		LayerP50:    time.Duration(lh.Quantile(0.50)),
		LayerP99:    time.Duration(lh.Quantile(0.99)),
		DispatchP99: time.Duration(dh.Quantile(0.99)),
	}, nil
}
