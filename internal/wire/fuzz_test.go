package wire_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/mvba"
	"sintra/internal/netsim"
	"sintra/internal/rbc"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// recordingScheduler wraps a fair scheduler and snapshots every delivered
// envelope, so the fuzz corpus is seeded with real protocol traffic instead
// of hand-written bytes.
type recordingScheduler struct {
	inner netsim.Scheduler

	mu       sync.Mutex
	messages []wire.Message
}

func (s *recordingScheduler) Next(pending []wire.Message) int {
	idx := s.inner.Next(pending)
	if idx >= 0 && idx < len(pending) {
		s.mu.Lock()
		s.messages = append(s.messages, pending[idx])
		s.mu.Unlock()
	}
	return idx
}

func (s *recordingScheduler) recorded() []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Message(nil), s.messages...)
}

// awaitCount waits until at least n envelopes of the given protocol and
// type have been delivered, so the recorded corpus does not depend on how
// soon the caller stops the network.
func (s *recordingScheduler) awaitCount(tb testing.TB, protocol, typ string, n int) {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := 0
		for _, m := range s.recorded() {
			if m.Protocol == protocol && m.Type == typ {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("seed traffic delivered %d %s %s, want %d", got, protocol, typ, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveTraffic runs a real four-party reliable broadcast on the simulator
// and returns every envelope the network delivered — SEND, ECHO, and READY
// messages with genuine encoded payloads — followed by the atomic-broadcast
// envelopes of fetchTraffic and the consistent-broadcast ones of
// cbcFetchTraffic.
func liveTraffic(tb testing.TB) []wire.Message {
	tb.Helper()
	return append(append(rbcTraffic(tb), fetchTraffic(tb)...), cbcFetchTraffic(tb)...)
}

// withoutFinalTo3 is a fair scheduler that never delivers party 3 a FINAL.
type withoutFinalTo3 struct{ rng *rand.Rand }

func (s withoutFinalTo3) Next(pending []wire.Message) int {
	var free []int
	for i := range pending {
		if pending[i].To != 3 || pending[i].Type != "FINAL" {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[s.rng.Intn(len(free))]
}

// cbcFetchTraffic runs a four-party consistent broadcast whose FINAL never
// reaches party 3, which fetches the result instead, and returns what was
// delivered: SEND, SHARE, the payload-free FINAL, party 3's REQ and the ANS.
func cbcFetchTraffic(tb testing.TB) []wire.Message {
	tb.Helper()
	rec := &recordingScheduler{inner: withoutFinalTo3{rand.New(rand.NewSource(44))}}
	c := testutil.NewCluster(tb, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: rec})
	delivered := make(chan struct{}, c.N())
	insts := make([]*cbc.CBC, c.N())
	c.Each(func(i int) {
		cfg := c.CBC(i)
		cfg.Instance, cfg.Sender = cbc.InstanceID(0, "fuzz-seed"), 0
		cfg.Deliver = func([]byte, []byte) { delivered <- struct{}{} }
		insts[i] = cbc.New(cfg)
	})
	wait := func(n int) {
		for ; n > 0; n-- {
			select {
			case <-delivered:
			case <-time.After(60 * time.Second):
				tb.Fatal("seed consistent broadcast did not deliver")
			}
		}
	}
	if err := insts[0].Start([]byte("fuzz corpus payload")); err != nil {
		tb.Fatal(err)
	}
	wait(3)
	c.Routers[3].DoSync(func() { insts[3].Fetch() })
	wait(1)
	// Party 3 delivers on the first answer; the other holders answer too.
	rec.awaitCount(tb, cbc.Protocol, "ANS", c.N()-1)
	c.Stop()
	return requireTypes(tb, rec.recorded(), cbc.Protocol, "SEND", "SHARE", "FINAL", "REQ", "ANS")
}

// requireTypes keeps the recorded envelopes of one protocol that have one
// of the given types, and fails if a type is not among them.
func requireTypes(tb testing.TB, recorded []wire.Message, protocol string, types ...string) []wire.Message {
	tb.Helper()
	var out []wire.Message
	seen := map[string]bool{}
	for _, typ := range types {
		seen[typ] = false
	}
	for _, m := range recorded {
		if _, wanted := seen[m.Type]; wanted && m.Protocol == protocol {
			out = append(out, m)
			seen[m.Type] = true
		}
	}
	for typ, found := range seen {
		if !found {
			tb.Fatalf("seed traffic produced no %s %s", protocol, typ)
		}
	}
	return out
}

// fetchTraffic orders one payload submitted at a single party of a real
// four-party atomic broadcast whose proposals reference anything over 64
// bytes, and returns the abc envelopes delivered — by-reference PROPOSALs,
// the FETCHes of the three parties that lacked the payload, and the
// PAYLOAD answers — and the round's agreement VOTEs, which carry a
// certificate and no payload.
func fetchTraffic(tb testing.TB) []wire.Message {
	tb.Helper()
	rec := &recordingScheduler{inner: netsim.NewRandomScheduler(43)}
	c := testutil.NewCluster(tb, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: rec})
	delivered := make(chan struct{}, c.N())
	insts := make([]*abc.ABC, c.N())
	c.Each(func(i int) {
		cfg := c.ABC(i)
		cfg.Instance, cfg.CodedThreshold = "fuzz-seed", 64
		cfg.Deliver = func(int64, []byte) { delivered <- struct{}{} }
		insts[i] = abc.New(cfg)
	})
	if err := insts[0].Broadcast(bytes.Repeat([]byte("fuzz corpus payload "), 10)); err != nil {
		tb.Fatal(err)
	}
	for range insts {
		select {
		case <-delivered:
		case <-time.After(60 * time.Second):
			tb.Fatal("seed atomic broadcast did not deliver")
		}
	}
	c.Stop()
	return append(requireTypes(tb, rec.recorded(), abc.Protocol, "PROPOSAL", "FETCH", "PAYLOAD"),
		requireTypes(tb, rec.recorded(), mvba.Protocol, "VOTE")...)
}

func rbcTraffic(tb testing.TB) []wire.Message {
	tb.Helper()
	const n = 4
	st, err := adversary.NewThreshold(n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &recordingScheduler{inner: netsim.NewRandomScheduler(42)}
	nw := netsim.New(n, 0, rec)
	defer nw.Stop()

	delivered := make(chan struct{}, n)
	instance := rbc.InstanceID(0, "fuzz-seed")
	routers := make([]*engine.Router, n)
	rbcs := make([]*rbc.RBC, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := engine.NewRouter(nw.Endpoint(i))
		routers[i] = r
		rbcs[i] = rbc.New(rbc.Config{
			Router:   r,
			Struct:   st,
			Instance: instance,
			Sender:   0,
			Deliver:  func([]byte) { delivered <- struct{}{} },
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run()
		}()
	}
	routers[0].DoSync(func() {
		if err := rbcs[0].Start([]byte("fuzz corpus payload")); err != nil {
			tb.Error(err)
		}
	})
	for i := 0; i < n; i++ {
		select {
		case <-delivered:
		case <-time.After(30 * time.Second):
			tb.Fatal("seed broadcast did not deliver")
		}
	}
	nw.Stop()
	wg.Wait()
	return rec.recorded()
}

// seedLimit caps the corpus so the seed phase stays fast; live traffic is
// deduplicated by message type first so every shape is represented.
const seedLimit = 64

// coalesced concatenates frames in the transport's coalesced-write shape:
// each frame preceded by its 4-byte big-endian length, several frames per
// blob. The decoders see exactly this byte layout if a buggy or Byzantine
// peer hands a whole burst where one frame is expected.
func coalesced(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(fr)))
		out = append(out, lb[:]...)
		out = append(out, fr...)
	}
	return out
}

// burstSeeds builds coalesced multi-frame blobs from live traffic: pairs
// and triples of real envelope frames, plus a burst with a truncated tail.
func burstSeeds(tb testing.TB, msgs []wire.Message) [][]byte {
	var frames [][]byte
	for i := range msgs {
		fr, err := wire.EncodeMessage(&msgs[i])
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, fr)
		if len(frames) == 3 {
			break
		}
	}
	if len(frames) < 3 {
		tb.Fatal("not enough live traffic for burst seeds")
	}
	pair := coalesced(frames[0], frames[1])
	triple := coalesced(frames[0], frames[1], frames[2])
	return [][]byte{pair, triple, triple[:len(triple)-len(frames[2])/2]}
}

// uniqueByType picks up to seedLimit/8 envelopes of each protocol and type,
// then tops the corpus up to seedLimit from the rest in recorded order: how
// many envelopes of each type a live run delivers varies with the
// interleaving, and the corpus size, which numbers the seeds, must not.
func uniqueByType(msgs []wire.Message) []wire.Message {
	seen := map[string]int{}
	var out, rest []wire.Message
	for _, m := range msgs {
		key := m.Protocol + "/" + m.Type
		if seen[key] >= seedLimit/8 {
			rest = append(rest, m)
			continue
		}
		seen[key]++
		out = append(out, m)
	}
	out = append(out, rest...)
	return out[:min(len(out), seedLimit)]
}

// bodyShapes returns fresh decode targets in the layouts of the hot
// bodies: aba's bool-round and coin-share burst, cbc's certificate and
// share, mvba's vote, abc's proposal and proposal list (digests), core's
// request and response, the envelope, and a bare payload. The owning
// packages' golden tests pin their real types to these layouts.
func bodyShapes() []any {
	return []any{
		&struct {
			Round int
			Value bool
		}{},
		&struct {
			Round  int
			Shares []coin.Share
		}{},
		&struct {
			Digest [32]byte
			Cert   []byte
		}{},
		&struct{ Share thresig.Share }{},
		&struct {
			Trial   int
			HasCert bool
			Digest  [32]byte
			Cert    []byte
		}{},
		&abc.SignedProposal{},
		&struct{ Proposals [][32]byte }{},
		&struct {
			ReqID  [16]byte
			Client int
			Body   []byte
		}{},
		&struct {
			ReqID        [16]byte
			Seq          int64
			Result       []byte
			Share        thresig.Share
			Index, Count int
			Branch       [][32]byte
		}{},
		&wire.Message{},
		&struct{ Payload []byte }{},
	}
}

// FuzzUnmarshalBody feeds arbitrary bytes to the body decoder through the
// concrete shapes the protocol stack uses. The decoder must never panic —
// a corrupted party chooses these bytes — and must be canonical: whatever
// decodes re-encodes to exactly the input. A map target always errors.
func FuzzUnmarshalBody(f *testing.F) {
	traffic := liveTraffic(f)
	for _, m := range uniqueByType(traffic) {
		f.Add(m.Payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xff})
	f.Add(wire.MustMarshalBody(struct{ Payload []byte }{Payload: []byte("x")}))
	for _, blob := range burstSeeds(f, traffic) {
		f.Add(blob)
	}
	f.Add(wire.MustMarshalBody(struct {
		Round  int
		Shares []coin.Share
	}{3, []coin.Share{sampleShare()}}))
	f.Add(wire.MustMarshalBody(struct{ Share thresig.Share }{thresig.Share{Party: 2, Data: []byte{1}}}))
	f.Add(wire.MustMarshalBody(abc.SignedProposal{Party: 2, Round: 4, Batch: [][]byte{[]byte("req")}, Refs: make([]byte, 32), Sig: []byte("sig")}))
	f.Add(wire.MustMarshalBody(struct{ Proposals [][32]byte }{[][32]byte{{1}, {2}, {3}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range bodyShapes() {
			if wire.UnmarshalBody(data, v) != nil {
				continue
			}
			out, err := wire.MarshalBody(v)
			if err != nil {
				t.Fatalf("re-marshal of decoded %T failed: %v", v, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("non-canonical decode into %T: %x re-encodes as %x", v, data, out)
			}
		}
		var nested struct {
			Round int
			Votes map[int][]byte
		}
		if wire.UnmarshalBody(data, &nested) == nil {
			t.Fatal("decoded into a map")
		}
	})
}

// FuzzMessageDecode feeds arbitrary bytes to the transport frame decoder.
// Valid frames must round-trip exactly; everything else must error without
// panicking.
func FuzzMessageDecode(f *testing.F) {
	traffic := liveTraffic(f)
	var frame []byte
	for _, m := range uniqueByType(traffic) {
		m := m
		var err error
		frame, err = wire.EncodeMessage(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	// A real frame with one trailing byte, and one cut a byte short.
	f.Add(append(append([]byte(nil), frame...), 0x00))
	f.Add(frame[:len(frame)-1])
	for _, blob := range burstSeeds(f, traffic) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeMessage(data)
		if err != nil {
			return
		}
		frame, err := wire.EncodeMessage(&m)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		m2, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if m2.From != m.From || m2.To != m.To || m2.Protocol != m.Protocol ||
			m2.Instance != m.Instance || m2.Type != m.Type || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round-trip changed the message: %s != %s", m2.String(), m.String())
		}
	})
}
