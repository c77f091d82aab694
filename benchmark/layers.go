package main

import (
	"crypto/rand"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sintra/internal/aba"
	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/coin"
	"sintra/internal/deal"
	"sintra/internal/dleq"
	"sintra/internal/engine"
	"sintra/internal/group"
	"sintra/internal/mvba"
	"sintra/internal/netsim"
	"sintra/internal/rbc"
	"sintra/internal/rs"
	"sintra/internal/scabc"
	"sintra/internal/threnc"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wal"
	"sintra/internal/wire"
)

// Group (b) of the per-layer metrics: the benchmark times calls into each
// package's exported API on its own, so a layer's cost is known apart
// from the deployment around it. Kernels run on one goroutine with fixed
// iteration counts and report the median per-call time.

const (
	kernelIters   = 60 // public-key kernels (0.05-1 ms each)
	fastIters     = 400
	durableIters  = 30 // each waits for an fsync
	protocolIters = 30
	opTimeout     = 30 * time.Second
)

// timeUs returns the median time of fn in microseconds over iters calls.
func timeUs(iters int, fn func()) float64 {
	times := make([]float64, iters)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(times)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("benchmark: isolated driver: %v", err))
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: isolated driver: %v", err))
	}
}

// layers runs every isolated driver and records its metric. The drivers
// panic on any failure (none is expected on a sound build and disk); that
// surfaces here as the run's error.
func layers(tmp string, res *result) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	st4 := must(adversary.NewThreshold(4, 1))
	g := must(group.ByName(groupBackend))
	pub, secrets, err := deal.New(deal.Options{Group: g, Structure: st4, RSAPrimes: deal.TestPrimes256()})
	check(err)
	kernels(g, st4, pub, secrets, tmp, res)
	protocols(st4, pub, secrets, res)
	return nil
}

func kernels(g group.Group, st *adversary.Structure, pub *deal.Public, secrets []*deal.PartySecret, tmp string, res *result) {
	msg := make([]byte, 256)
	must(rand.Read(msg))

	// group: one variable-base exponentiation, one double exponentiation.
	x, y := must(g.RandomScalar(rand.Reader)), must(g.RandomScalar(rand.Reader))
	p, q := must(g.RandomElement(rand.Reader)), must(g.RandomElement(rand.Reader))
	res.set("group.exp_us", timeUs(kernelIters, func() { g.Exp(p, x) }))
	res.set("group.multiexp2_us", timeUs(kernelIters, func() { g.MulExp(p, x, q, y) }))

	// dleq: log_g(g^x) = log_p(p^x).
	stmt := dleq.Statement{G1: g.Generator(), H1: g.BaseExp(x), G2: p, H2: g.Exp(p, x)}
	var proof *dleq.Proof
	res.set("dleq.prove_us", timeUs(kernelIters, func() { proof = must(dleq.Prove(g, stmt, x, "bench", rand.Reader)) }))
	res.set("dleq.verify_us", timeUs(kernelIters, func() { check(dleq.Verify(g, stmt, proof, "bench")) }))

	// coin: release one party's shares, verify one share, combine t+1.
	n := 0
	name := func() string { n++; return fmt.Sprintf("coin-%d", n) }
	res.set("coin.release_us", timeUs(kernelIters, func() {
		must(pub.Coin.ReleaseShares(secrets[0].Coin, name(), rand.Reader))
	}))
	share0 := must(pub.Coin.ReleaseShares(secrets[0].Coin, "fixed", rand.Reader))
	share1 := must(pub.Coin.ReleaseShares(secrets[1].Coin, "fixed", rand.Reader))
	res.set("coin.verify_us", timeUs(kernelIters, func() { check(pub.Coin.VerifyShare("fixed", share0[0])) }))
	res.set("coin.combine_us", timeUs(kernelIters, func() {
		c := coin.NewCombiner(pub.Coin, "fixed")
		for _, sh := range append(share0, share1...) {
			c.AddVerified(sh)
		}
		must(c.Value())
	}))

	// thresig: the answer scheme (t+1 of n Shoup RSA on the test modulus).
	scheme := pub.AnswerSig()
	var sigShares []thresig.Share
	for i := 0; i <= st.Thresh; i++ {
		sigShares = append(sigShares, must(scheme.SignShare(secrets[i].SigAnswer, msg, rand.Reader)))
	}
	res.set("thresig.sign_us", timeUs(kernelIters, func() { must(scheme.SignShare(secrets[0].SigAnswer, msg, rand.Reader)) }))
	res.set("thresig.verify_us", timeUs(kernelIters, func() { check(scheme.VerifyShare(msg, sigShares[0])) }))
	res.set("thresig.combine_us", timeUs(kernelIters, func() { must(scheme.Combine(msg, sigShares)) }))

	// threnc: TDH2 over a 256 B request.
	var ct *threnc.Ciphertext
	res.set("threnc.encrypt_us", timeUs(kernelIters, func() { ct = must(pub.Enc.Encrypt(msg, []byte("bench"), rand.Reader)) }))
	var dec0 []threnc.Share
	res.set("threnc.decshare_us", timeUs(kernelIters, func() { dec0 = must(pub.Enc.DecryptShares(secrets[0].Enc, ct, rand.Reader)) }))
	dec1 := must(pub.Enc.DecryptShares(secrets[1].Enc, ct, rand.Reader))
	res.set("threnc.verify_us", timeUs(kernelIters, func() { check(pub.Enc.VerifyShare(ct, dec0[0])) }))
	res.set("threnc.combine_us", timeUs(kernelIters, func() {
		c := must(threnc.NewCombiner(pub.Enc, ct))
		for _, sh := range append(dec0, dec1...) {
			c.AddVerified(sh)
		}
		must(c.Decrypt())
	}))

	// identity: Ed25519 proposal signatures.
	var sig []byte
	res.set("identity.sign_us", timeUs(fastIters, func() { sig = secrets[0].Identity.Sign("bench", msg) }))
	res.set("identity.verify_us", timeUs(fastIters, func() { check(pub.Identity.Verify(0, "bench", msg, sig)) }))

	// wire: gob envelopes, one agreement-vote-sized and one 64 KiB.
	small := wire.Message{From: 1, To: 2, Protocol: "aba", Instance: "svc/bench/r17/t0", Type: "AUX", Payload: msg[:160]}
	var frame []byte
	res.set("wire.encode_us", timeUs(fastIters, func() { frame = must(wire.EncodeMessage(&small)) }))
	res.set("wire.decode_us", timeUs(fastIters, func() { must(wire.DecodeMessage(frame)) }))
	blob := make([]byte, 64<<10)
	must(rand.Read(blob))
	big := must(wire.EncodeMessage(&wire.Message{Protocol: "rbc", Instance: "0/svc/bench/r17/batch", Type: "SEND", Payload: blob}))
	res.set("wire.decode_64k_us", timeUs(fastIters, func() { must(wire.DecodeMessage(big)) }))

	// rs: the n=4 t=1 code (k=2 data + 2 parity) over a 64 KiB blob.
	codec := must(rs.New(st.N()-2*st.Thresh, 2*st.Thresh))
	var shards [][]byte
	encodeUs := timeUs(kernelIters, func() { shards = must(codec.Encode(codec.Split(blob))) })
	res.set("rs.encode_mb_s", float64(len(blob))/encodeUs) // bytes per microsecond = MB/s
	lost := append([][]byte(nil), shards...)
	lost[0], lost[1] = nil, nil // both data shards gone: a full decode
	rebuildUs := timeUs(kernelIters, func() { must(codec.Join(must(codec.Reconstruct(lost)), len(blob))) })
	res.set("rs.reconstruct_mb_s", float64(len(blob))/rebuildUs)
	res.set("rs.merkle_64k_us", timeUs(kernelIters, func() { rs.NewTree(shards).Root() }))

	// wal: a 256 B record without and with the group-commit fsync wait.
	dir := must(os.MkdirTemp(tmp, "wal-"))
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{})
	check(err)
	res.set("wal.append_us", timeUs(fastIters, func() { must(log.Append(msg)) }))
	res.set("wal.append_durable_us", timeUs(durableIters, func() { must(log.AppendDurable(msg)) }))
	check(log.Close())

	// trust: the quorum predicate at n=7, over a rotating set.
	q7 := trust.NewSymmetric(must(adversary.NewThreshold(7, 2)))
	sets := []adversary.Set{adversary.SetOf(0, 1, 2, 3, 4), adversary.SetOf(0, 1, 2, 3), adversary.SetOf(2, 3, 4, 5, 6), adversary.SetOf(1, 3, 5)}
	const batch = 1000
	sink := 0
	res.set("trust.isquorum_ns", timeUs(fastIters, func() {
		for i := 0; i < batch; i++ {
			if q7.IsQuorum(i%7, sets[i%len(sets)]) {
				sink++
			}
		}
	})*1000/batch)
	_ = sink
}

// stack is four routers over a simulated network: the smallest place a
// protocol instance can run.
type stack struct {
	st      *adversary.Structure
	pub     *deal.Public
	secrets []*deal.PartySecret
	net     *netsim.Network
	routers []*engine.Router
	wg      sync.WaitGroup
}

func newStack(st *adversary.Structure, pub *deal.Public, secrets []*deal.PartySecret) *stack {
	s := &stack{st: st, pub: pub, secrets: secrets, net: netsim.New(st.N(), 0, netsim.NewRandomScheduler(1))}
	for i := 0; i < st.N(); i++ {
		r := engine.NewRouter(s.net.Endpoint(i))
		s.routers = append(s.routers, r)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			r.Run()
		}()
	}
	return s
}

func (s *stack) stop() {
	s.net.Stop()
	s.wg.Wait()
}

// each runs fn for every party on that party's dispatch goroutine.
func (s *stack) each(fn func(i int, r *engine.Router)) {
	for i, r := range s.routers {
		r.DoSync(func() { fn(i, r) })
	}
}

// opMs times protocolIters operations one at a time: start (which
// creates the op's instances and kicks them off) until all n parties have
// delivered or decided.
func (s *stack) opMs(start func(op int, done func())) float64 {
	times := make([]float64, protocolIters)
	for op := range times {
		var count atomic.Int64
		all := make(chan struct{})
		done := func() {
			if count.Add(1) == int64(s.st.N()) {
				close(all)
			}
		}
		t0 := time.Now()
		start(op, done)
		select {
		case <-all:
		case <-time.After(opTimeout):
			panic(fmt.Sprintf("benchmark: isolated protocol driver: operation %d timed out", op))
		}
		times[op] = ms(time.Since(t0))
	}
	return median(times)
}

// protocols times one instance at a time of every broadcast and agreement
// layer on a fresh four-party stack, 256 B payloads.
func protocols(st *adversary.Structure, pub *deal.Public, secrets []*deal.PartySecret, res *result) {
	payload := make([]byte, 256)
	must(rand.Read(payload))
	blob := make([]byte, 64<<10)
	must(rand.Read(blob))
	with := func(fn func(s *stack) float64) float64 {
		s := newStack(st, pub, secrets)
		defer s.stop()
		return fn(s)
	}

	reliable := func(tag string, body []byte, coded int) float64 {
		return with(func(s *stack) float64 {
			return s.opMs(func(op int, done func()) {
				var sender *rbc.RBC
				s.each(func(i int, r *engine.Router) {
					inst := rbc.New(rbc.Config{
						Router: r, Struct: st, Instance: rbc.InstanceID(0, fmt.Sprintf("%s%d", tag, op)), Sender: 0,
						CodedThreshold: coded, Deliver: func([]byte) { done() },
					})
					if i == 0 {
						sender = inst
					}
				})
				check(sender.Start(body))
			})
		})
	}
	res.set("rbc.op_ms", reliable("plain", payload, 0))
	res.set("rbc.coded_op_ms", reliable("coded", blob, 1))

	res.set("cbc.op_ms", with(func(s *stack) float64 {
		return s.opMs(func(op int, done func()) {
			var sender *cbc.CBC
			s.each(func(i int, r *engine.Router) {
				inst := cbc.New(cbc.Config{
					Router: r, Struct: st, Instance: cbc.InstanceID(0, fmt.Sprintf("op%d", op)), Sender: 0,
					Scheme: pub.QuorumSig(), Key: secrets[i].SigQuorum,
					Deliver: func([]byte, []byte) { done() },
				})
				if i == 0 {
					sender = inst
				}
			})
			check(sender.Start(payload))
		})
	}))

	res.set("aba.op_ms", with(func(s *stack) float64 {
		return s.opMs(func(op int, done func()) {
			insts := make([]*aba.ABA, st.N())
			s.each(func(i int, r *engine.Router) {
				insts[i] = aba.New(aba.Config{
					Router: r, Struct: st, Instance: fmt.Sprintf("op%d", op),
					Coin: pub.Coin, CoinKey: secrets[i].Coin,
					Decide: func(bool) { done() },
				})
			})
			for i, inst := range insts {
				check(inst.Start(i%2 == 0)) // split input: the coin has to work
			}
		})
	}))

	res.set("mvba.op_ms", with(func(s *stack) float64 {
		return s.opMs(func(op int, done func()) {
			insts := make([]*mvba.MVBA, st.N())
			s.each(func(i int, r *engine.Router) {
				insts[i] = mvba.New(mvba.Config{
					Router: r, Struct: st, Instance: fmt.Sprintf("op%d", op),
					Coin: pub.Coin, CoinKey: secrets[i].Coin,
					Scheme: pub.QuorumSig(), Key: secrets[i].SigQuorum,
					Decide: func([]byte) { done() },
				})
			})
			for i, inst := range insts {
				check(inst.Start(append(payload[:len(payload):len(payload)], byte(i))))
			}
		})
	}))

	// The ordering layers are long-lived: one instance per party, one
	// payload submitted and delivered everywhere per operation.
	res.set("abc.op_ms", with(func(s *stack) float64 {
		var deliver atomic.Pointer[func()]
		insts := make([]*abc.ABC, st.N())
		s.each(func(i int, r *engine.Router) {
			insts[i] = abc.New(abc.Config{
				Router: r, Struct: st, Instance: "bench",
				Identity: pub.Identity, IDKey: secrets[i].Identity,
				Coin: pub.Coin, CoinKey: secrets[i].Coin,
				Scheme: pub.QuorumSig(), Key: secrets[i].SigQuorum,
				Deliver: func(int64, []byte) { (*deliver.Load())() },
			})
		})
		return s.opMs(func(op int, done func()) {
			deliver.Store(&done)
			check(insts[0].Broadcast(append(payload[:len(payload):len(payload)], byte(op))))
		})
	}))

	res.set("scabc.op_ms", with(func(s *stack) float64 {
		var deliver atomic.Pointer[func()]
		insts := make([]*scabc.SCABC, st.N())
		s.each(func(i int, r *engine.Router) {
			insts[i] = scabc.New(scabc.Config{
				Router: r, Struct: st, Instance: "bench",
				Identity: pub.Identity, IDKey: secrets[i].Identity,
				Coin: pub.Coin, CoinKey: secrets[i].Coin,
				Scheme: pub.QuorumSig(), Key: secrets[i].SigQuorum,
				Enc: pub.Enc, EncKey: secrets[i].Enc,
				Deliver: func(int64, []byte) { (*deliver.Load())() },
			})
		})
		return s.opMs(func(op int, done func()) {
			deliver.Store(&done)
			ct := must(scabc.Encrypt(pub.Enc, "bench", append(payload[:len(payload):len(payload)], byte(op))))
			check(insts[0].Submit(ct))
		})
	}))
}
