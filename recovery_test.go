package sintra_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sintra"
	"sintra/internal/faultsim"
	"sintra/internal/wal"
	"sintra/internal/wire"
)

// waitFrontier blocks until the replica catches the given delivery
// frontier (or the deadline passes).
func waitFrontier(t *testing.T, dep *sintra.SimulatedDeployment, replica int, target int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for dep.Node(replica).Seq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck at seq %d, live frontier %d",
				replica, dep.Node(replica).Seq(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertRestartedConsistent compares the restarted replica's post-restart
// execution against a continuously-live replica wherever they share a
// sequence number: amnesia-free recovery must reproduce the exact chain.
func assertRestartedConsistent(t *testing.T, c *chainCluster, restarted *chainMachine, live int) {
	t.Helper()
	hist := restarted.history()
	if len(hist) == 0 {
		t.Fatal("restarted replica never applied a request after recovery")
	}
	bySeq := make(map[int64][32]byte)
	for _, e := range c.machines[live].history() {
		bySeq[e.seq] = e.state
	}
	matched := 0
	for _, e := range hist {
		ref, ok := bySeq[e.seq]
		if !ok {
			continue
		}
		if ref != e.state {
			t.Fatalf("restarted replica diverged at seq %d — equivocation or state corruption", e.seq)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("restarted replica shares no sequence numbers with a live replica")
	}
}

// TestChaosDurableCrashMidProtocol is the headline durability scenario:
// an adversarially timed crash wedges replica 2's journal at a chosen
// record — mid-round, after some votes and echoes are committed to disk
// but before the round completes — muting it instantly. The replica is
// then killed and revived FROM ITS JOURNAL. Recovery must replay the
// vote ledger so the replica can only ever repeat its recorded messages,
// never contradict them: the cluster keeps liveness throughout, the
// revived replica reaches the live frontier, honest histories stay
// identical, and no replica panics. Run under -race by the chaos CI job.
func TestChaosDurableCrashMidProtocol(t *testing.T) {
	durableCrashMidProtocol(t, sintra.Tuning{CheckpointInterval: 8, NoFsync: true}, 0)
}

// TestChaosDurableCrashByReference is the same crash cycle with requests
// over the reference threshold: the journaled proposals name payloads by
// digest, and the revived replica's payload store starts empty — what it
// proposed before the crash it can re-send but no longer serve. It must
// neither wedge a round nor contradict its journal, and must converge.
func TestChaosDurableCrashByReference(t *testing.T) {
	durableCrashMidProtocol(t, sintra.Tuning{CheckpointInterval: 8, NoFsync: true, CodedThreshold: 256}, 1024)
}

// durableCrashMidProtocol runs the crash cycle with every request padded
// by pad bytes.
func durableCrashMidProtocol(t *testing.T, tuning sintra.Tuning, pad int) {
	dir := t.TempDir()
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(51),
		sintra.WithTuning(tuning),
		sintra.WithDataDir(dir),
		// Crash replica 2 the moment it tries to journal record 40:
		// several rounds of commitments are on disk, the current round is
		// half-spoken.
		sintra.WithWALCrashPoint(2, func(lsn uint64) bool { return lsn >= 40 }),
	)
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(i int) {
		req := append([]byte(fmt.Sprintf("durable-request-%d", i)), make([]byte, pad)...)
		ans, err := invokeWithin(client, req, 120*time.Second)
		if err != nil {
			t.Fatalf("request %d: liveness lost: %v", i, err)
		}
		if err := sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("request %d: answer does not verify: %v", i, err)
		}
	}

	// Phase 1: drive load until the crash point fires. The cluster keeps
	// ordering — a wedged journal mutes the replica (a benign crash), it
	// never lets an unjournaled message out.
	for i := 0; i < 6; i++ {
		invoke(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !c.dep.Node(2).Journal().Wedged() {
		if time.Now().After(deadline) {
			t.Fatal("crash point never fired: replica 2 journaled fewer than 40 records")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 2: kill it and keep the cluster moving past a checkpoint.
	c.dep.StopServer(2)
	for i := 6; i < 18; i++ {
		invoke(i)
	}

	// Phase 3: amnesia-free restart from the journal.
	if err := c.dep.RestartServerDurable(2); err != nil {
		t.Fatalf("durable restart: %v", err)
	}
	j := c.dep.Node(2).Journal()
	if j == nil || j.Recovered() == 0 {
		t.Fatal("durable restart recovered no journaled commitments")
	}
	restarted := c.machines[len(c.machines)-1]
	for i := 18; i < 24; i++ {
		invoke(i)
	}
	waitFrontier(t, c.dep, 2, c.dep.Node(0).Seq())

	snap := c.dep.Metrics()
	if n := snap.Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics across the crash cycle", n)
	}
	if n := snap.Counter("wal.records"); n == 0 {
		t.Fatal("nothing was ever journaled")
	}
	assertRestartedConsistent(t, c, restarted, 0)
	// The continuously-live replicas (index 4 is the restarted fresh
	// machine, compared by seq above) must agree position by position.
	c.assertReplicasConsistent(t, 4)
	if referenced := snap.Counter("abc.coded.proposals"); (pad > 0) != (referenced > 0) {
		t.Fatalf("abc.coded.proposals = %d with %d-byte requests", referenced, pad)
	}
	t.Logf("recovered=%d replayed=%d records=%d",
		j.Recovered(), snap.Counter("wal.replayed"), snap.Counter("wal.records"))
}

// TestChaosDurableRestartDamagedTail injects the two storage faults a
// real power failure leaves behind — a torn (truncated) frame and a
// bit-flipped tail — into a killed replica's WAL, then revives it from
// the damaged journal. Recovery must detect the damage via frame
// checksums, discard exactly the broken tail, and rejoin safely on the
// surviving prefix: re-sending only commitments that were durably
// recorded can never equivocate.
func TestChaosDurableRestartDamagedTail(t *testing.T) {
	faults := []struct {
		name   string
		damage func(serverDir string) error
	}{
		{"power-fail-truncate", func(d string) error { return faultsim.TruncateWALTail(d, 5) }},
		{"corrupt-tail", faultsim.CorruptWALTail},
	}
	for i, fault := range faults {
		fault, i := fault, i
		t.Run(fault.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			c := newChainCluster(t, 4, 1,
				sintra.WithSeed(int64(61+i)),
				sintra.WithTuning(sintra.Tuning{CheckpointInterval: 8, NoFsync: true}),
				sintra.WithDataDir(dir),
			)
			client, err := c.dep.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			invoke := func(k int) {
				ans, err := invokeWithin(client, []byte(fmt.Sprintf("tail-request-%d", k)), 120*time.Second)
				if err != nil {
					t.Fatalf("request %d: liveness lost: %v", k, err)
				}
				if err := sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
					t.Fatalf("request %d: answer does not verify: %v", k, err)
				}
			}
			for k := 0; k < 6; k++ {
				invoke(k)
			}
			c.dep.StopServer(2)
			if err := fault.damage(filepath.Join(dir, "server2")); err != nil {
				t.Fatalf("injecting %s: %v", fault.name, err)
			}
			for k := 6; k < 12; k++ {
				invoke(k)
			}
			if err := c.dep.RestartServerDurable(2); err != nil {
				t.Fatalf("durable restart over damaged WAL: %v", err)
			}
			j := c.dep.Node(2).Journal()
			if j.TornBytes() == 0 {
				t.Fatalf("%s: recovery reported no discarded tail bytes", fault.name)
			}
			restarted := c.machines[len(c.machines)-1]
			for k := 12; k < 16; k++ {
				invoke(k)
			}
			waitFrontier(t, c.dep, 2, c.dep.Node(0).Seq())
			if n := c.dep.Metrics().Counter("router.panics"); n != 0 {
				t.Fatalf("router recovered %d handler panics after tail damage", n)
			}
			assertRestartedConsistent(t, c, restarted, 0)
			c.assertReplicasConsistent(t, 4)
		})
	}
}

// TestWALCrashPointMatrix kills replica 1 at EVERY early WAL record
// index — each subtest wedges the journal exactly at record k, so the
// crash lands at a different protocol stage every time: before the first
// message, mid-RBC, between a BVAL and its AUX, after a coin share —
// then revives the replica from its journal and requires convergence
// with zero equivocation. Deterministic seeds make every crash point
// reproducible.
//
// The last point runs with the real fsync on and fires on the first
// append that follows another within half a millisecond, so the crash
// lands between an append and the commit covering it: the records still
// waiting for their fsync are lost with the process, and the peers must
// never have seen a message whose record the replayed log does not hold.
func TestWALCrashPointMatrix(t *testing.T) {
	points := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if testing.Short() {
		points = []uint64{0, 3, 7, 11}
	}
	for _, k := range points {
		k := k
		t.Run(fmt.Sprintf("record-%d", k), func(t *testing.T) {
			t.Parallel()
			crashAtRecord(t, int64(300+k), func(lsn uint64) bool { return lsn >= k }, false)
		})
	}
	t.Run("between-append-and-fsync", func(t *testing.T) {
		t.Parallel()
		var last time.Time // the hook runs under the log's lock
		crashAtRecord(t, 323, func(lsn uint64) bool {
			prev := last
			last = time.Now()
			return lsn >= 12 && (last.Sub(prev) < 500*time.Microsecond || lsn >= 60)
		}, true)
	})
}

// wireTap is a pass-through "attack": it records everything its party
// puts on the wire for someone else.
type wireTap struct {
	mu   sync.Mutex
	sent []wire.Message
}

func (*wireTap) Name() string { return "tap" }

func (w *wireTap) Apply(ctx *faultsim.Context, m wire.Message) []wire.Message {
	if m.To != ctx.Self {
		w.mu.Lock()
		w.sent = append(w.sent, m)
		w.mu.Unlock()
	}
	return []wire.Message{m}
}

// journaledOnDisk reads a server's WAL directory without opening the
// log: the outbound records it holds, as (protocol, instance, type,
// payload) keys, and the number of records of any kind.
func journaledOnDisk(t *testing.T, serverDir string) (onDisk map[string]bool, records int) {
	t.Helper()
	segments, err := filepath.Glob(filepath.Join(serverDir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segments)
	onDisk = make(map[string]bool)
	for _, path := range segments {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payloads, _ := wal.ScanSegment(data)
		records += len(payloads)
		for _, p := range payloads {
			rec, err := wal.DecodeRecord(p)
			if err != nil {
				continue
			}
			for _, e := range append(rec.Entries, rec) {
				if e.Slot != "" {
					onDisk[wireKey(e.Protocol, e.Instance, e.MsgType, e.Payload)] = true
				}
			}
		}
	}
	return onDisk, records
}

func wireKey(protocol, instance, msgType string, payload []byte) string {
	return fmt.Sprintf("%s|%s|%s|%x", protocol, instance, msgType, payload)
}

// crashAtRecord wedges replica 1's journal at the first record fail
// accepts, kills it, revives it from the journal and requires
// convergence. With fsync on, the undurable records die with the replica,
// and every journaled kind of message a peer received from it must be in
// the log it left behind.
func crashAtRecord(t *testing.T, seed int64, fail func(lsn uint64) bool, fsync bool) {
	dir := t.TempDir()
	var crashedAt atomic.Uint64
	opts := []sintra.SimOption{
		sintra.WithSeed(seed),
		sintra.WithTuning(sintra.Tuning{CheckpointInterval: 4, NoFsync: !fsync}),
		sintra.WithDataDir(dir),
		sintra.WithWALCrashPoint(1, func(lsn uint64) bool {
			if !fail(lsn) {
				return false
			}
			crashedAt.Store(lsn)
			return true
		}),
	}
	tap := &wireTap{}
	if fsync {
		opts = append(opts, sintra.WithByzantine(1, tap))
	}
	c := newChainCluster(t, 4, 1, opts...)
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(i int) {
		ans, err := invokeWithin(client, []byte(fmt.Sprintf("matrix-%d-%d", seed, i)), 120*time.Second)
		if err != nil {
			t.Fatalf("request %d: liveness lost with replica crashed at record %d: %v", i, crashedAt.Load(), err)
		}
		if err := sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("request %d: answer does not verify: %v", i, err)
		}
	}
	// The first appends hit within the first request; the cluster
	// must stay live with the replica muted at record k.
	for i := 0; i < 6; i++ {
		invoke(i)
	}
	if !c.dep.Node(1).Journal().Wedged() {
		t.Fatal("crash point never fired")
	}
	c.dep.StopServer(1)
	if fsync {
		onDisk, survived := journaledOnDisk(t, filepath.Join(dir, "server1"))
		// The kinds of message that are journaled at all, from every log.
		kinds := make(map[string]bool)
		for i := 0; i < 4; i++ {
			log, _ := journaledOnDisk(t, filepath.Join(dir, fmt.Sprintf("server%d", i)))
			for key := range log {
				parts := strings.SplitN(key, "|", 4)
				kinds[parts[0]+"|"+parts[2]] = true
			}
		}
		tap.mu.Lock()
		seen := 0
		for _, m := range tap.sent {
			if !kinds[m.Protocol+"|"+m.Type] {
				continue
			}
			seen++
			if !onDisk[wireKey(m.Protocol, m.Instance, m.Type, m.Payload)] {
				t.Errorf("peer %d received %s/%s %s, which the crashed replica's log does not hold",
					m.To, m.Protocol, m.Instance, m.Type)
			}
		}
		tap.mu.Unlock()
		if seen == 0 {
			t.Fatal("the tap saw no journaled message leave replica 1")
		}
		t.Logf("crash lost %d of the %d records appended; all %d journaled messages on the wire are in the log",
			int(crashedAt.Load())-survived, crashedAt.Load(), seen)
	}
	if err := c.dep.RestartServerDurable(1); err != nil {
		t.Fatalf("durable restart: %v", err)
	}
	restarted := c.machines[len(c.machines)-1]
	for i := 6; i < 10; i++ {
		invoke(i)
	}
	waitFrontier(t, c.dep, 1, c.dep.Node(0).Seq())
	if n := c.dep.Metrics().Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics (crash point %d)", n, crashedAt.Load())
	}
	assertRestartedConsistent(t, c, restarted, 0)
	c.assertReplicasConsistent(t, 4)
}
