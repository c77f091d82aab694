package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/rbc"
)

// CodedRow is one measurement of experiment CD: reliable broadcast of a
// B-byte payload to n parties, with fragment dispersal on or off.
type CodedRow struct {
	Mode       string
	N, T       int
	Payload    int
	Ops        int
	LatencyPer time.Duration
	// BytesPerParty is network egress divided by n·ops: the per-party
	// bandwidth cost of one broadcast. Plain RBC echoes the full payload
	// n ways (quadratic aggregate); coded dissemination ships one B/k
	// fragment per party (linear, plus Merkle branches).
	BytesPerParty float64
	MsgsPerOp     float64
}

// RunCodedSweep measures reliable-broadcast cost across payload sizes and
// system sizes, once per mode: "on" disperses fragments above a 1-byte
// threshold (every broadcast coded), "off" always ships full payloads.
// The identical seeded schedule makes rows comparable pairwise.
func RunCodedSweep(ns, payloads []int, modes []string, ops int) ([]CodedRow, error) {
	var rows []CodedRow
	for _, mode := range modes {
		var threshold int
		switch mode {
		case "on":
			threshold = 1
		case "off":
			threshold = -1
		default:
			return nil, fmt.Errorf("bench: unknown coded mode %q (want on or off)", mode)
		}
		for _, n := range ns {
			t := (n - 1) / 3
			st, err := adversary.NewThreshold(n, t)
			if err != nil {
				return nil, err
			}
			for _, payload := range payloads {
				row, err := runCodedOnce(st, mode, threshold, payload, ops)
				if err != nil {
					return nil, fmt.Errorf("bench: coded sweep %s n=%d B=%d: %w", mode, n, payload, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runCodedOnce(st *adversary.Structure, mode string, threshold, payload, ops int) (CodedRow, error) {
	c, err := newCluster(st, clusterOptions{})
	if err != nil {
		return CodedRow{}, err
	}
	defer c.stop()

	msg := make([]byte, payload)
	rand.New(rand.NewSource(int64(payload))).Read(msg)
	n := st.N()
	var delivered atomic.Int64

	startMsgs, startBytes := c.net.Stats().Total()
	start := time.Now()
	for op := 0; op < ops; op++ {
		tag := fmt.Sprintf("cd%d", op)
		var sender *rbc.RBC
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				inst := rbc.New(rbc.Config{
					Router: c.routers[i], Struct: st,
					Instance: rbc.InstanceID(0, tag), Sender: 0,
					CodedThreshold: threshold,
					Deliver:        func([]byte) { delivered.Add(1) },
				})
				if i == 0 {
					sender = inst
				}
			})
		}
		if err := sender.Start(msg); err != nil {
			return CodedRow{}, err
		}
		if err := waitCount(func() int { return int(delivered.Load()) }, (op+1)*n, defaultTimeout); err != nil {
			return CodedRow{}, err
		}
	}
	elapsed := time.Since(start)
	endMsgs, endBytes := c.net.Stats().Total()
	t, err := st.MaxTolerated()
	if err != nil {
		return CodedRow{}, err
	}
	return CodedRow{
		Mode:          mode,
		N:             n,
		T:             t,
		Payload:       payload,
		Ops:           ops,
		LatencyPer:    elapsed / time.Duration(ops),
		BytesPerParty: float64(endBytes-startBytes) / float64(n*ops),
		MsgsPerOp:     float64(endMsgs-startMsgs) / float64(ops),
	}, nil
}

// PrintCodedSweep renders the CD table and, for every (n, payload) pair
// measured in both modes, the coded-to-plain bandwidth ratio — the
// quadratic-to-linear crossover the dispersal exists for.
func PrintCodedSweep(w io.Writer, rows []CodedRow) {
	fmt.Fprintf(w, "Coded dissemination (CD): reliable broadcast cost, fragments vs full payloads\n")
	fmt.Fprintf(w, "%-6s %3s %3s %9s %12s %15s %9s\n",
		"mode", "n", "t", "payload", "latency/op", "bytes/party/op", "msgs/op")
	type key struct{ n, payload int }
	on := make(map[key]*CodedRow)
	off := make(map[key]*CodedRow)
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(w, "%-6s %3d %3d %9d %12s %15.0f %9.1f\n",
			r.Mode, r.N, r.T, r.Payload, r.LatencyPer.Round(time.Microsecond),
			r.BytesPerParty, r.MsgsPerOp)
		switch r.Mode {
		case "on":
			on[key{r.N, r.Payload}] = r
		case "off":
			off[key{r.N, r.Payload}] = r
		}
	}
	for i := range rows {
		r := &rows[i]
		if r.Mode != "on" {
			continue
		}
		k := key{r.N, r.Payload}
		if p, ok := off[k]; ok && p.BytesPerParty > 0 {
			ratio := r.BytesPerParty / p.BytesPerParty
			verdict := "coded wins"
			if ratio >= 1 {
				verdict = "plain wins (overhead-dominated)"
			}
			fmt.Fprintf(w, "n=%-3d B=%-8d coded/plain bandwidth ratio %.2f — %s\n",
				r.N, r.Payload, ratio, verdict)
		}
	}
}
