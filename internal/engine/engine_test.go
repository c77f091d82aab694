package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sintra/internal/engine"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/wire"
)

// pair builds a two-party network with running routers.
func pair(t *testing.T) (*netsim.Network, *engine.Router, *engine.Router, func()) {
	t.Helper()
	nw := netsim.New(2, 0, netsim.NewRandomScheduler(1))
	r0 := engine.NewRouter(nw.Endpoint(0))
	r1 := engine.NewRouter(nw.Endpoint(1))
	var wg sync.WaitGroup
	for _, r := range []*engine.Router{r0, r1} {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run()
		}()
	}
	stop := func() {
		nw.Stop()
		wg.Wait()
	}
	t.Cleanup(stop)
	return nw, r0, r1, stop
}

type recorded struct {
	from    int
	msgType string
}

func TestSendAndDispatch(t *testing.T) {
	_, r0, r1, _ := pair(t)
	got := make(chan recorded, 4)
	r1.DoSync(func() {
		r1.Register("p", "i", func(from int, msgType string, payload []byte) {
			got <- recorded{from, msgType}
		})
	})
	if err := r0.Send(1, "p", "i", "PING", struct{}{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.from != 0 || m.msgType != "PING" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never dispatched")
	}
}

func TestBufferedReplayOnRegister(t *testing.T) {
	_, r0, r1, _ := pair(t)
	// Send before the handler exists; the message must be buffered.
	if err := r0.Send(1, "p", "late", "EARLY", struct{ X int }{7}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	got := make(chan recorded, 1)
	r1.DoSync(func() {
		r1.Register("p", "late", func(from int, msgType string, payload []byte) {
			got <- recorded{from, msgType}
		})
	})
	select {
	case m := <-got:
		if m.msgType != "EARLY" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("buffered message not replayed")
	}
}

func TestUnregisterTombstones(t *testing.T) {
	_, r0, r1, _ := pair(t)
	got := make(chan recorded, 8)
	r1.DoSync(func() {
		r1.Register("p", "i", func(from int, msgType string, payload []byte) {
			got <- recorded{from, msgType}
		})
	})
	r0.Send(1, "p", "i", "ONE", struct{}{})
	<-got
	r1.DoSync(func() { r1.Unregister("p", "i") })
	r0.Send(1, "p", "i", "TWO", struct{}{})
	select {
	case m := <-got:
		t.Fatalf("tombstoned instance received %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
	// Re-registering a tombstoned instance is a no-op.
	r1.DoSync(func() {
		r1.Register("p", "i", func(from int, msgType string, payload []byte) {
			got <- recorded{from, msgType}
		})
	})
	r0.Send(1, "p", "i", "THREE", struct{}{})
	select {
	case m := <-got:
		t.Fatalf("tombstone resurrected: %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestFactoryCreatesOnDemand(t *testing.T) {
	_, r0, r1, _ := pair(t)
	got := make(chan string, 4)
	r1.SetFactory("auto", func(instance string) engine.Handler {
		return func(from int, msgType string, payload []byte) {
			got <- instance + "/" + msgType
		}
	})
	r0.Send(1, "auto", "x1", "A", struct{}{})
	r0.Send(1, "auto", "x2", "B", struct{}{})
	want := map[string]bool{"x1/A": true, "x2/B": true}
	for i := 0; i < 2; i++ {
		select {
		case s := <-got:
			if !want[s] {
				t.Fatalf("unexpected %q", s)
			}
			delete(want, s)
		case <-time.After(5 * time.Second):
			t.Fatal("factory instance never handled message")
		}
	}
}

func TestFactoryReturningNilBuffers(t *testing.T) {
	_, r0, r1, _ := pair(t)
	r1.SetFactory("picky", func(instance string) engine.Handler {
		return nil // refuse
	})
	r0.Send(1, "picky", "i", "A", struct{}{})
	time.Sleep(50 * time.Millisecond)
	got := make(chan string, 1)
	r1.DoSync(func() {
		r1.Register("picky", "i", func(from int, msgType string, payload []byte) {
			got <- msgType
		})
	})
	select {
	case s := <-got:
		if s != "A" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message lost after factory refusal")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	_, r0, _, _ := pair(t)
	got := make(chan int, 4)
	r0.DoSync(func() {
		r0.Register("p", "b", func(from int, msgType string, payload []byte) {
			got <- from
		})
	})
	if err := r0.Broadcast("p", "b", "HELLO", struct{}{}); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-got:
		if from != 0 {
			t.Fatalf("self-delivery from %d", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no loopback delivery")
	}
}

func TestDoSyncAfterShutdown(t *testing.T) {
	_, r0, _, stop := pair(t)
	stop()
	if r0.DoSync(func() {}) {
		t.Fatal("DoSync succeeded after shutdown")
	}
	if r0.Do(func() {}) {
		t.Fatal("Do succeeded after shutdown")
	}
}

func TestDoRunsOnDispatchGoroutine(t *testing.T) {
	_, r0, _, _ := pair(t)
	// Tasks and handlers interleave on one goroutine: mutate shared state
	// without locks from both paths and rely on the race detector.
	counter := 0
	r0.DoSync(func() {
		r0.Register("p", "c", func(int, string, []byte) { counter++ })
	})
	for i := 0; i < 10; i++ {
		r0.Send(0, "p", "c", "T", struct{}{})
		r0.DoSync(func() { counter++ })
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var c int
		r0.DoSync(func() { c = counter })
		if c == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want 20", c)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendMarshalsBody(t *testing.T) {
	_, r0, r1, _ := pair(t)
	type body struct{ V string }
	got := make(chan string, 1)
	r1.DoSync(func() {
		r1.Register("p", "m", func(from int, msgType string, payload []byte) {
			var b body
			if err := wire.UnmarshalBody(payload, &b); err != nil {
				t.Errorf("unmarshal: %v", err)
				return
			}
			got <- b.V
		})
	})
	if err := r0.Send(1, "p", "m", "T", body{V: "hello"}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	// Unencodable bodies error immediately.
	if err := r0.Send(1, "p", "m", "T", make(chan int)); err == nil {
		t.Fatal("channel body accepted")
	}
}

func TestBufferCapDropsOldest(t *testing.T) {
	// Flood an unregistered instance beyond one sender's buffer share; on
	// register, only the sender's newest messages replay, contiguously.
	nw, r0, r1, _ := pair(t)
	const quota = 4096 / 2 // maxBufferedPerInstance split across n=2 senders
	const flood = 5000
	for k := 0; k < flood; k++ {
		if err := r0.Send(1, "p", "cap", "M", struct{ K int }{k}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the network delivered the whole flood to party 1's inbox,
	// then give the dispatcher time to drain the inbox into the buffer.
	deadline := time.Now().Add(20 * time.Second)
	for nw.Stats().Messages["p"] < flood {
		if time.Now().After(deadline) {
			t.Fatalf("flood stuck at %d", nw.Stats().Messages["p"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The inbox is FIFO per destination once the scheduler delivered, so a
	// sentinel enqueued after the flood fences the dispatcher: when it is
	// handled, every flood message has been buffered.
	fence := make(chan struct{})
	r1.DoSync(func() {
		r1.Register("p", "fence", func(int, string, []byte) { close(fence) })
	})
	if err := r0.Send(1, "p", "fence", "F", struct{}{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fence:
	case <-time.After(20 * time.Second):
		t.Fatal("fence never dispatched")
	}

	var replayed []int
	done := make(chan struct{})
	r1.DoSync(func() {
		r1.Register("p", "cap", func(from int, msgType string, payload []byte) {
			var b struct{ K int }
			if wire.UnmarshalBody(payload, &b) == nil {
				replayed = append(replayed, b.K)
			}
		})
		close(done)
	})
	<-done
	var snapshot []int
	r1.DoSync(func() { snapshot = append([]int(nil), replayed...) })
	// The network randomizes delivery order, so the surviving messages are
	// the sender's last `quota` ARRIVALS: exactly its share, all distinct.
	if len(snapshot) != quota {
		t.Fatalf("replayed %d, want exactly the %d per-sender share", len(snapshot), quota)
	}
	seen := make(map[int]bool, len(snapshot))
	for _, k := range snapshot {
		if seen[k] || k < 0 || k >= flood {
			t.Fatalf("replay corrupted at value %d", k)
		}
		seen[k] = true
	}
}

func TestRouterMetrics(t *testing.T) {
	_, r0, r1, _ := pair(t)
	reg := obs.NewRegistry()
	// SetObserver is documented pre-Run, but the router only reads mx on
	// the dispatch goroutine, so install it there.
	r1.DoSync(func() { r1.SetObserver(reg) })
	if r1.Observer() != reg {
		t.Fatal("Observer() must return the installed registry")
	}
	got := make(chan struct{}, 8)
	r1.DoSync(func() {
		r1.Register("p", "i", func(int, string, []byte) { got <- struct{}{} })
	})
	const sends = 5
	for k := 0; k < sends; k++ {
		if err := r0.Send(1, "p", "i", "PING", struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < sends; k++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("message never dispatched")
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counter("router.recv.p.PING"); n != sends {
		t.Fatalf("router.recv.p.PING = %d, want %d", n, sends)
	}
	if n := snap.Counter("router.dispatched"); n != sends {
		t.Fatalf("router.dispatched = %d, want %d", n, sends)
	}
	if h := snap.Histograms["router.dispatch.latency"]; h.Count != sends {
		t.Fatalf("dispatch latency observations = %d, want %d", h.Count, sends)
	}
}

func TestBufferOverflowDropMetrics(t *testing.T) {
	// Flood an unregistered instance beyond one sender's buffer share with
	// an observer installed: the drop counter and the drop trace events
	// must account for every evicted message.
	nw, r0, r1, _ := pair(t)
	reg := obs.NewRegistry()
	col := obs.NewCollectTracer()
	reg.SetTracer(col)
	r1.DoSync(func() { r1.SetObserver(reg) })

	const quota = 4096 / 2 // per-sender share on n=2
	const flood = 4200
	for k := 0; k < flood; k++ {
		if err := r0.Send(1, "p", "over", "M", struct{ K int }{k}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for nw.Stats().Messages["p"] < flood {
		if time.Now().After(deadline) {
			t.Fatalf("flood stuck at %d", nw.Stats().Messages["p"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Fence the dispatcher (see TestBufferCapDropsOldest).
	fence := make(chan struct{})
	r1.DoSync(func() {
		r1.Register("p", "fence", func(int, string, []byte) { close(fence) })
	})
	if err := r0.Send(1, "p", "fence", "F", struct{}{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fence:
	case <-time.After(20 * time.Second):
		t.Fatal("fence never dispatched")
	}

	snap := reg.Snapshot()
	wantDrops := int64(flood - quota)
	if n := snap.Counter("router.buffered.drops"); n != wantDrops {
		t.Fatalf("router.buffered.drops = %d, want %d", n, wantDrops)
	}
	if g := snap.Gauges["router.buffered.depth"]; g.Max != quota {
		t.Fatalf("buffer depth high-water = %d, want %d", g.Max, quota)
	}
	var dropEvents int64
	for _, ev := range col.Events() {
		if ev.Stage == obs.StageDrop && ev.Protocol == "p" && ev.Instance == "over" {
			dropEvents++
			if !strings.Contains(ev.Note, "(from 0)") {
				t.Fatalf("drop trace note %q does not name the sender", ev.Note)
			}
		}
	}
	if dropEvents != wantDrops {
		t.Fatalf("drop trace events = %d, want %d", dropEvents, wantDrops)
	}
}

// TestBufferPerSenderQuota floods one instance from a corrupted party
// while an honest party's early messages trickle in: the flooder must
// exhaust only its own share, and every honest message must survive to
// replay.
func TestBufferPerSenderQuota(t *testing.T) {
	nw := netsim.New(4, 0, netsim.NewRandomScheduler(7))
	t.Cleanup(nw.Stop)
	r := engine.NewRouter(nw.Endpoint(0))
	go r.Run()
	flooder, honest := nw.Endpoint(3), nw.Endpoint(1)

	const flood = 3000 // far beyond the 4096/4 = 1024 per-sender share
	const honestMsgs = 5
	for k := 0; k < flood; k++ {
		flooder.Send(wire.Message{To: 0, Protocol: "p", Instance: "q", Type: "M",
			Payload: wire.MustMarshalBody(struct{ K int }{k})})
		if k < honestMsgs {
			honest.Send(wire.Message{To: 0, Protocol: "p", Instance: "q", Type: "H",
				Payload: wire.MustMarshalBody(struct{ K int }{k})})
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for nw.Stats().Messages["p"] < flood+honestMsgs {
		if time.Now().After(deadline) {
			t.Fatalf("flood stuck at %d", nw.Stats().Messages["p"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	fence := make(chan struct{})
	r.DoSync(func() {
		r.Register("p", "fence", func(int, string, []byte) { close(fence) })
	})
	flooder.Send(wire.Message{To: 0, Protocol: "p", Instance: "fence", Type: "F"})
	select {
	case <-fence:
	case <-time.After(20 * time.Second):
		t.Fatal("fence never dispatched")
	}

	var fromHonest, fromFlooder int
	r.DoSync(func() {
		r.Register("p", "q", func(from int, msgType string, payload []byte) {
			switch from {
			case 1:
				fromHonest++
			case 3:
				fromFlooder++
			}
		})
	})
	var gotHonest, gotFlooder int
	r.DoSync(func() { gotHonest, gotFlooder = fromHonest, fromFlooder })
	if gotHonest != honestMsgs {
		t.Fatalf("honest messages replayed = %d, want all %d", gotHonest, honestMsgs)
	}
	if gotFlooder != 4096/4 {
		t.Fatalf("flooder messages replayed = %d, want its %d share", gotFlooder, 4096/4)
	}
}

// TestBufferRouterWideSenderCap spams fresh instances from one sender: the
// router-wide budget must bound the total buffered regardless of how many
// instance names the flooder invents.
func TestBufferRouterWideSenderCap(t *testing.T) {
	nw := netsim.New(2, 0, netsim.NewRandomScheduler(9))
	t.Cleanup(nw.Stop)
	reg := obs.NewRegistry()
	r := engine.NewRouter(nw.Endpoint(0))
	r.SetObserver(reg)
	go r.Run()
	flooder := nw.Endpoint(1)

	const budget = 4 * 4096 // maxBufferedPerSenderTotal
	const flood = budget + 500
	for k := 0; k < flood; k++ {
		flooder.Send(wire.Message{To: 0, Protocol: "p",
			Instance: fmt.Sprintf("fresh-%d", k), Type: "M"})
	}
	deadline := time.Now().Add(30 * time.Second)
	for nw.Stats().Messages["p"] < flood {
		if time.Now().After(deadline) {
			t.Fatalf("flood stuck at %d", nw.Stats().Messages["p"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	fence := make(chan struct{})
	r.DoSync(func() {
		r.Register("p", "fence", func(int, string, []byte) { close(fence) })
	})
	flooder.Send(wire.Message{To: 0, Protocol: "p", Instance: "fence", Type: "F"})
	select {
	case <-fence:
	case <-time.After(20 * time.Second):
		t.Fatal("fence never dispatched")
	}
	if n := reg.Snapshot().Counter("router.buffered.drops"); n != flood-budget {
		t.Fatalf("router.buffered.drops = %d, want %d", n, flood-budget)
	}
}

// TestDecodeMalformedCounted: the router-level decode guard must count
// malformed payloads and report failure without disturbing dispatch.
func TestDecodeMalformedCounted(t *testing.T) {
	nw, r0, r1, _ := pair(t)
	reg := obs.NewRegistry()
	r1.DoSync(func() { r1.SetObserver(reg) })
	got := make(chan bool, 4)
	r1.DoSync(func() {
		r1.Register("p", "i", func(from int, msgType string, payload []byte) {
			var v struct{ K int }
			got <- r1.Decode(payload, &v)
		})
	})
	if err := r0.Send(1, "p", "i", "OK", struct{ K int }{7}); err != nil {
		t.Fatal(err)
	}
	// Garbage bytes straight onto the wire, bypassing Send's marshalling.
	nw.Endpoint(0).Send(wire.Message{To: 1, Protocol: "p", Instance: "i",
		Type: "EVIL", Payload: []byte{0xde, 0xad, 0xbe, 0xef}})
	results := map[bool]int{}
	for i := 0; i < 2; i++ {
		select {
		case ok := <-got:
			results[ok]++
		case <-time.After(5 * time.Second):
			t.Fatal("message never dispatched")
		}
	}
	if results[true] != 1 || results[false] != 1 {
		t.Fatalf("decode results %v, want one success and one failure", results)
	}
	if n := reg.Snapshot().Counter("router.malformed"); n != 1 {
		t.Fatalf("router.malformed = %d, want 1", n)
	}
}

// TestRouterSurvivesHandlerPanic: a handler panic on attacker input is
// recovered, counted, and the router keeps dispatching.
func TestRouterSurvivesHandlerPanic(t *testing.T) {
	_, r0, r1, _ := pair(t)
	reg := obs.NewRegistry()
	r1.DoSync(func() { r1.SetObserver(reg) })
	got := make(chan string, 4)
	r1.DoSync(func() {
		r1.Register("p", "i", func(from int, msgType string, payload []byte) {
			if msgType == "BOOM" {
				panic("attacker payload")
			}
			got <- msgType
		})
	})
	if err := r0.Send(1, "p", "i", "BOOM", struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := r0.Send(1, "p", "i", "AFTER", struct{}{}); err != nil {
		t.Fatal(err)
	}
	select {
	case mt := <-got:
		if mt != "AFTER" {
			t.Fatalf("got %q, want AFTER", mt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router died after handler panic")
	}
	if n := reg.Snapshot().Counter("router.panics"); n != 1 {
		t.Fatalf("router.panics = %d, want 1", n)
	}
}

// feedTransport hands the router a fixed number of identical pre-marshaled
// messages with no network in between — the dispatch hot path in isolation.
type feedTransport struct {
	remaining int
	msg       wire.Message
}

func (f *feedTransport) Self() int         { return 0 }
func (f *feedTransport) N() int            { return 4 }
func (f *feedTransport) Send(wire.Message) {}
func (f *feedTransport) Recv() (wire.Message, bool) {
	if f.remaining == 0 {
		return wire.Message{}, false
	}
	f.remaining--
	return f.msg, true
}
func (f *feedTransport) Close() error { return nil }

// benchmarkDispatch measures end-to-end dispatch of b.N messages into a
// registered no-op handler, with or without an observer.
func benchmarkDispatch(b *testing.B, reg *obs.Registry) {
	payload, _ := wire.MarshalBody(struct{ X int }{1})
	r := engine.NewRouter(&feedTransport{
		remaining: b.N,
		msg:       wire.Message{From: 1, To: 0, Protocol: "p", Instance: "i", Type: "T", Payload: payload},
	})
	r.SetObserver(reg)
	r.Register("p", "i", func(int, string, []byte) {})
	b.ReportAllocs()
	b.ResetTimer()
	r.Run() // returns once the feed is exhausted
}

// BenchmarkRouterDispatch guards the zero-overhead contract: the Off case
// must not regress, and Off vs On shows the full cost of observability.
// CI runs both as a smoke check.
func BenchmarkRouterDispatch(b *testing.B) {
	b.Run("Off", func(b *testing.B) { benchmarkDispatch(b, nil) })
	b.Run("On", func(b *testing.B) { benchmarkDispatch(b, obs.NewRegistry()) })
}

// TestTombstonesBounded is the regression test for the unbounded
// Unregister leak: before the bounded tombstone set, every finished
// instance kept its full state struct alive forever. 10k register/
// unregister cycles must leave both the instance map and the tombstone
// set bounded.
func TestTombstonesBounded(t *testing.T) {
	_, _, r1, _ := pair(t)
	const cycles = 10000
	var instances, tombstones int
	r1.DoSync(func() {
		for i := 0; i < cycles; i++ {
			inst := fmt.Sprintf("cycle-%d", i)
			r1.Register("leak", inst, func(int, string, []byte) {})
			r1.Unregister("leak", inst)
		}
		instances, tombstones = r1.Sizes()
	})
	if instances != 0 {
		t.Fatalf("instance map holds %d entries after unregistering all", instances)
	}
	if tombstones > 4096 {
		t.Fatalf("tombstone set grew to %d entries (want bounded)", tombstones)
	}
	// Compaction below a GC horizon empties the set entirely.
	r1.DoSync(func() {
		r1.CompactTombstones(func(protocol, instance string) bool { return true })
		_, tombstones = r1.Sizes()
	})
	if tombstones != 0 {
		t.Fatalf("tombstones after full compaction: %d", tombstones)
	}
}

// TestNonServerSendersReachOnlyClientFacingProtocols: the transport admits
// unauthenticated clients under any index >= n, and the server protocols
// count senders toward quorums, so the router drops what such an endpoint
// sends to any protocol not declared client-facing — before a handler or
// the early-arrival buffer sees it.
func TestNonServerSendersReachOnlyClientFacingProtocols(t *testing.T) {
	nw := netsim.New(2, 1, netsim.NewRandomScheduler(1))
	r := engine.NewRouter(nw.Endpoint(0))
	reg := obs.NewRegistry()
	r.SetObserver(reg)
	r.AcceptClients("open")
	got := make(chan recorded, 8)
	handler := func(from int, msgType string, _ []byte) { got <- recorded{from, msgType} }
	r.Register("open", "i", handler)
	r.Register("closed", "i", handler)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run()
	}()
	t.Cleanup(func() {
		nw.Stop()
		<-done
	})

	send := func(from int, protocol, instance, msgType string) {
		nw.Endpoint(from).Send(wire.Message{To: 0, Protocol: protocol, Instance: instance, Type: msgType})
	}
	send(2, "closed", "i", "FORGED")        // a registered server protocol
	send(2, "closed", "not-yet", "FORGED")  // one that would be buffered
	send(2, "open", "i", "REQUEST")         // the client-facing protocol
	send(1, "closed", "i", "FROM-A-SERVER") // a server is a server
	want := map[recorded]bool{{2, "REQUEST"}: true, {1, "FROM-A-SERVER"}: true}
	for len(want) > 0 {
		select {
		case m := <-got:
			if !want[m] {
				t.Fatalf("handler saw %+v", m)
			}
			delete(want, m)
		case <-time.After(10 * time.Second):
			t.Fatalf("never dispatched: %v", want)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counter("router.dropped.nonserver") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("router.dropped.nonserver = %d, want 2", reg.Snapshot().Counter("router.dropped.nonserver"))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case m := <-got:
		t.Fatalf("handler saw %+v", m)
	default:
	}
	r.DoSync(func() {
		if instances, _ := r.Sizes(); instances != 2 {
			t.Errorf("%d instances: a dropped message left state behind", instances)
		}
	})
}
