package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/aba"
	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/mvba"
	"sintra/internal/rbc"
	"sintra/internal/scabc"
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

// runStackLayer measures one layer on a fresh cluster.
func runStackLayer(st *adversary.Structure, layer string, ops int) (StackRow, error) {
	c, err := newCluster(st, clusterOptions{})
	if err != nil {
		return StackRow{}, err
	}
	defer c.stop()

	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	n := st.N()
	var delivered atomic.Int64

	start := time.Now()
	switch layer {
	case "rbc":
		for op := 0; op < ops; op++ {
			tag := fmt.Sprintf("op%d", op)
			var insts []*rbc.RBC
			for _, i := range c.alive() {
				i := i
				c.routers[i].DoSync(func() {
					inst := rbc.New(rbc.Config{
						Router: c.routers[i], Struct: st,
						Instance: rbc.InstanceID(0, tag), Sender: 0,
						Deliver: func([]byte) { delivered.Add(1) },
					})
					if i == 0 {
						insts = append(insts, inst)
					}
				})
			}
			if err := insts[0].Start(payload); err != nil {
				return StackRow{}, err
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	case "cbc":
		for op := 0; op < ops; op++ {
			tag := fmt.Sprintf("op%d", op)
			var sender *cbc.CBC
			for _, i := range c.alive() {
				i := i
				c.routers[i].DoSync(func() {
					inst := cbc.New(cbc.Config{
						Router: c.routers[i], Struct: st,
						Instance: cbc.InstanceID(0, tag), Sender: 0,
						Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
						Deliver: func([]byte, []byte) { delivered.Add(1) },
					})
					if i == 0 {
						sender = inst
					}
				})
			}
			if err := sender.Start(payload); err != nil {
				return StackRow{}, err
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	case "aba":
		for op := 0; op < ops; op++ {
			tag := fmt.Sprintf("op%d", op)
			insts := make(map[int]*aba.ABA, n)
			for _, i := range c.alive() {
				i := i
				c.routers[i].DoSync(func() {
					insts[i] = aba.New(aba.Config{
						Router: c.routers[i], Struct: st, Instance: tag,
						Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
						Decide: func(bool) { delivered.Add(1) },
					})
				})
			}
			for i, inst := range insts {
				if err := inst.Start(i%2 == 0); err != nil {
					return StackRow{}, err
				}
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	case "mvba":
		for op := 0; op < ops; op++ {
			tag := fmt.Sprintf("op%d", op)
			insts := make(map[int]*mvba.MVBA, n)
			for _, i := range c.alive() {
				i := i
				c.routers[i].DoSync(func() {
					insts[i] = mvba.New(mvba.Config{
						Router: c.routers[i], Struct: st, Instance: tag,
						Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
						Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
						Decide: func([]byte) { delivered.Add(1) },
					})
				})
			}
			for i, inst := range insts {
				if err := inst.Start(append(payload, byte(i))); err != nil {
					return StackRow{}, err
				}
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	case "abc":
		insts := make(map[int]*abc.ABC, n)
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				insts[i] = abc.New(abc.Config{
					Router: c.routers[i], Struct: st, Instance: "bench",
					Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
					Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
					Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
					Deliver: func(int64, []byte) { delivered.Add(1) },
				})
			})
		}
		for op := 0; op < ops; op++ {
			if err := insts[0].Broadcast(append(payload, byte(op))); err != nil {
				return StackRow{}, err
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	case "scabc":
		insts := make(map[int]*scabc.SCABC, n)
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				insts[i] = scabc.New(scabc.Config{
					Router: c.routers[i], Struct: st, Instance: "bench",
					Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
					Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
					Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
					Enc: c.pub.Enc, EncKey: c.secrets[i].Enc,
					Deliver: func(int64, []byte) { delivered.Add(1) },
				})
			})
		}
		for op := 0; op < ops; op++ {
			ct, err := scabc.Encrypt(c.pub.Enc, "bench", append(payload, byte(op)))
			if err != nil {
				return StackRow{}, err
			}
			if err := insts[0].Submit(ct); err != nil {
				return StackRow{}, err
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
				return StackRow{}, err
			}
		}
	default:
		return StackRow{}, fmt.Errorf("bench: unknown layer %q", layer)
	}
	elapsed := time.Since(start)

	msgs, bytes := c.net.Stats().Total()
	snap := c.reg.Snapshot()
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
