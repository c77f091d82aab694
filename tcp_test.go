package sintra_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sintra"
	"sintra/internal/group"
	"sintra/internal/transport"
	"sintra/internal/wire"
)

// TestDurableTCPClient runs the production shape end to end: four
// replicas on loopback TCP, each journaling into its own DataDir, and one
// client making sequential invocations whose answers verify. Envelopes
// that name a server or an endpoint no connection holds are ordered among
// them and reach nobody.
func TestDurableTCPClient(t *testing.T) {
	const n, invocations = 4, 20
	st, err := sintra.NewThresholdStructure(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pub, secrets, err := sintra.Deal(sintra.DealOptions{
		Structure: st, GroupName: group.TestDefaultName(), RSAPrimes: sintra.TestRSAPrimes,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every transport shares one address slice, filled in as the
	// listeners bind; peers are dialed only once replicas start sending.
	addrs := make([]string, n)
	trs := make([]*transport.Transport, n)
	for i := range trs {
		tr, err := transport.NewServer(transport.Config{
			Self: i, N: n, Addrs: addrs, ListenAddr: "127.0.0.1:0", LinkKeys: secrets[i].LinkKeys,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i], addrs[i] = tr, tr.Addr()
	}
	dir := t.TempDir()
	for i, tr := range trs {
		node, err := sintra.NewNode(sintra.NodeConfig{
			Public: pub, Secret: secrets[i], Transport: tr,
			ServiceName: "chain", Service: &chainMachine{}, Mode: sintra.ModeAtomic,
			DataDir: filepath.Join(dir, fmt.Sprint("server", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		go node.Run()
		t.Cleanup(node.Stop)
	}

	ctr, err := transport.NewClient(transport.Config{Self: n + 1, N: n, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	client := sintra.NewClientOverTransport(pub, ctr, "chain", sintra.ModeAtomic)
	defer client.Close()
	stray, err := transport.NewClient(transport.Config{Self: n + 2, N: n, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()

	last := int64(-1)
	for k := 0; k < invocations; k++ {
		if k == invocations/2 {
			for _, to := range []int{1, n + 3} {
				env := wire.MustMarshalBody(struct {
					ReqID  [16]byte
					Client int
					Body   []byte
				}{ReqID: [16]byte{byte(to)}, Client: to, Body: []byte("stray")})
				for s := 0; s < n; s++ {
					stray.Send(wire.Message{To: s, Protocol: "client", Instance: "chain", Type: "REQUEST", Payload: env})
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		ans, err := client.InvokeContext(ctx, []byte(fmt.Sprint("op-", k)))
		cancel()
		if err != nil {
			t.Fatalf("invocation %d: %v", k, err)
		}
		if err := sintra.VerifyAnswer(pub, "chain", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("invocation %d: answer does not verify: %v", k, err)
		}
		if ans.Seq <= last {
			t.Fatalf("invocation %d ordered at %d, after %d", k, ans.Seq, last)
		}
		last = ans.Seq
	}
}
