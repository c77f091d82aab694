package main

import (
	"crypto/ecdh"
	"crypto/sha256"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs on does not hold its speed. Its two
// vCPUs share host hardware with other tenants, and the guest is not told:
// a fixed piece of work costs 1.2 ms of thread CPU time for a while, then
// 1.8 ms, now and then 2.7 ms, in steps that last from a third of a second
// to minutes, whatever this process is doing. The same binary on the same
// seed completes 95 requests a second in one state and 140 in another, and
// process CPU time per request moves with it. No bound under 25 % survives
// that. So every run measures the machine while it
// measures the system: a probe thread executes that fixed piece of
// standard-library work a few times a second for the whole run and
// records the thread CPU time each execution took. Reference cost divided
// by observed cost is the machine's speed at that instant, and time-based
// metrics are restated at the reference speed with the speeds observed
// while they were measured: a window's throughput and CPU time with the
// mean over the window, a request's latency with the mean over the
// request's life, so a run that straddles a change of state does not end
// up with two populations of latencies. The probe uses no code of this
// repository, so no change to the system under test can move it.

const (
	// probeReferenceUs is the probe's cost on the reference machine: this
	// sandbox in its fast state. It only fixes the scale of the reported
	// numbers; comparisons between commits never depend on it.
	probeReferenceUs = 1200.0
	probeEvery       = 200 * time.Millisecond
)

// probeWork is the fixed computation: the instruction mix of the request
// path (P-256 scalar multiplication, modular exponentiation, SHA-256,
// small allocations and map traffic) at a few milliseconds in total.
type probeWork struct {
	key    *ecdh.PrivateKey
	peer   *ecdh.PublicKey
	base   *big.Int
	exp    *big.Int
	mod    *big.Int
	buffer []byte
}

func newProbeWork() *probeWork {
	seed := sha256.Sum256([]byte("sintra benchmark probe"))
	key, err := ecdh.P256().NewPrivateKey(seed[:])
	if err != nil {
		panic(err) // a fixed valid scalar: cannot fail
	}
	other := sha256.Sum256(seed[:])
	peerKey, err := ecdh.P256().NewPrivateKey(other[:])
	if err != nil {
		panic(err)
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 1023)
	mod.Add(mod, big.NewInt(1155)) // any fixed odd 1024-bit modulus
	return &probeWork{
		key: key, peer: peerKey.PublicKey(),
		base:   new(big.Int).SetBytes(seed[:]),
		exp:    new(big.Int).SetBytes(append(seed[:], other[:]...)),
		mod:    mod,
		buffer: make([]byte, 128<<10),
	}
}

var probeSink int

// run executes the work and returns the thread CPU time (us) it took.
func (p *probeWork) run() float64 {
	before := threadCPU()
	for i := 0; i < 12; i++ {
		if _, err := p.key.ECDH(p.peer); err != nil {
			panic(err)
		}
	}
	probeSink += new(big.Int).Exp(p.base, p.exp, p.mod).BitLen()
	d := sha256.Sum256(p.buffer)
	m := make(map[int][]byte, 64)
	for i := 0; i < 2000; i++ {
		m[i%257] = append(make([]byte, 0, 48), d[i%32])
	}
	probeSink += len(m)
	return float64(threadCPU()-before) / float64(time.Microsecond)
}

// threadCPU returns the CPU time consumed by the calling OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// probe samples the machine's speed until stopped.
type probe struct {
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

type probeSample struct {
	at   time.Time
	cost float64 // thread CPU time (us) of one execution of the work
}

// progress is how much faster than on the reference machine a piece of
// work proceeded when the sample was taken, if share of the work's
// reference time follows the processor as the probe does and the rest
// (timers, the disk) does not: it took share*cost/reference + (1-share) of
// its reference time.
func (s *probeSample) progress(share float64) float64 {
	return 1 / (share*s.cost/probeReferenceUs + 1 - share)
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// Thread CPU time only means something on one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		work := newProbeWork()
		work.run() // first execution pays one-off initialisation
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			cost := work.run()
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{time.Now(), cost})
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *probe) close() {
	close(p.stop)
	<-p.done
}

// factor returns the mean progress of work of that share over the probe samples
// taken in [from, to): multiply a duration measured in that span by it, or
// divide a rate by it, to restate it at the reference speed. The mean, not
// the median: work done in a span is the integral of the speed over it,
// and the median of a span that straddles two machine states jumps from
// one state's speed to the other's as the split passes the middle. With
// no sample inside the span it takes the sample nearest to it, and 1 when
// the probe has none at all (a sub-second smoke run).
func (p *probe) factor(share float64, from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total float64
	var n int
	var nearest *probeSample
	var distance time.Duration
	for i := range p.samples {
		s := &p.samples[i]
		d := max(from.Sub(s.at), s.at.Sub(to)+1) // > 0 outside [from, to)
		switch {
		case d <= 0:
			total += s.progress(share)
			n++
		case nearest == nil || d < distance:
			nearest, distance = s, d
		}
	}
	switch {
	case n > 0:
		return total / float64(n)
	case nearest != nil:
		return nearest.progress(share)
	}
	return 1
}

// costs returns the sorted costs (us) sampled in [from, to), for the report.
func (p *probe) costs(from, to time.Time) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var costs []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			costs = append(costs, s.cost)
		}
	}
	sort.Float64s(costs)
	return costs
}
