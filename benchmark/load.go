package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sintra"
)

// sample is one request as the load generator saw it.
type sample struct {
	start time.Time // when InvokeContext was called
	end   time.Time
	ans   sintra.Answer
	err   error
	bad   bool // set by the correctness gate: failed, unverifiable or duplicate
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// bodySource yields the seeded request bodies of one generator goroutine.
// A counter prefix keeps every body distinct.
type bodySource struct {
	rng  *rand.Rand
	size int
	id   uint32
	next uint32
}

func newBodySource(seed int64, id, size int) *bodySource {
	return &bodySource{rng: rand.New(rand.NewSource(seed*7919 + int64(id))), size: size, id: uint32(id)}
}

func (b *bodySource) body() []byte {
	out := make([]byte, b.size)
	b.rng.Read(out)
	if b.size >= 8 {
		binary.BigEndian.PutUint32(out, b.id)
		binary.BigEndian.PutUint32(out[4:], b.next)
	}
	b.next++
	return out
}

// loadgen drives one cluster and collects every sample.
type loadgen struct {
	c    *cluster
	seed int64

	mu      sync.Mutex
	samples []sample
	wg      sync.WaitGroup
}

func (g *loadgen) record(s sample) {
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
}

func (g *loadgen) issue(client int, body []byte) {
	s := sample{start: time.Now()}
	s.ans, s.err = g.c.invoke(client, body)
	s.end = time.Now()
	g.record(s)
}

// runClosed keeps w.Outstanding requests in flight until stop closes,
// then lets the requests in flight finish.
func (g *loadgen) runClosed(stop <-chan struct{}) {
	w := g.c.w
	for k := 0; k < w.Outstanding; k++ {
		g.wg.Add(1)
		go func(k int) {
			defer g.wg.Done()
			src := newBodySource(g.seed, k, w.ReqBytes)
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.issue(k, src.body())
			}
		}(k)
	}
	g.wg.Wait()
}

// percentile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// supportedTail returns the highest reported percentile that has at
// least ten samples beyond it in a sample of n, or 0.5 when none has.
func supportedTail(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
