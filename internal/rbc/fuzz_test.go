package rbc_test

import (
	"fmt"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/netsim"
	"sintra/internal/rbc"
	"sintra/internal/wire"
)

// FuzzFragmentDecode drives the coded-ECHO wire path with adversarial
// bytes: both raw garbage (exercising body decoding) and structurally
// valid fragBody messages with fuzzer-chosen fields (exercising shape
// checks and Merkle branch verification). The handler must never panic
// and must never deliver — a forged fragment cannot carry a verifying
// branch for an uncommitted root.
func FuzzFragmentDecode(f *testing.F) {
	st := adversary.MustThreshold(4, 1)
	net := netsim.New(4, 0, netsim.NewRandomScheduler(1))
	router := engine.NewRouter(net.Endpoint(1))
	f.Cleanup(net.Stop)

	f.Add([]byte("not a gob stream"), uint8(2), int16(3), int32(100), []byte("shardish"), []byte{})
	f.Add([]byte{}, uint8(0), int16(-1), int32(-5), []byte{}, make([]byte, 64))
	f.Add([]byte{0xff, 0x00, 0x01}, uint8(3), int16(2), int32(1<<20), make([]byte, 33), make([]byte, 95))

	iter := 0
	f.Fuzz(func(t *testing.T, raw []byte, from8 uint8, index int16, payLen int32, shard, branchBytes []byte) {
		iter++
		instance := rbc.InstanceID(2, fmt.Sprintf("fz%d", iter))
		delivered := false
		inst := rbc.New(rbc.Config{
			Router:   router,
			Struct:   st,
			Instance: instance,
			Sender:   2,
			Deliver:  func([]byte) { delivered = true },
		})
		// The router is not running: drive the handler directly, as the
		// dispatch goroutine would.
		from := int(from8 % 4)
		inst.Handle(from, "CECHO", raw)
		inst.Handle(2, "FRAG", raw)

		// A structurally valid fragment with adversarial field values.
		var root [32]byte
		copy(root[:], raw)
		branch := make([][32]byte, 0, len(branchBytes)/32)
		for i := 0; i+32 <= len(branchBytes); i += 32 {
			var h [32]byte
			copy(h[:], branchBytes[i:i+32])
			branch = append(branch, h)
		}
		body := wire.MustMarshalBody(struct {
			Root   [32]byte
			Index  int
			PayLen int
			Shard  []byte
			Branch [][32]byte
		}{root, int(index), int(payLen), shard, branch})
		inst.Handle(from, "CECHO", body)
		inst.Handle(2, "FRAG", body)
		// And the same bytes on the plain-path message types.
		inst.Handle(from, "ECHO", raw)
		inst.Handle(from, "READY", body)
		inst.Handle(from, "ANS", raw)

		if delivered {
			t.Fatal("forged fragment stream reached delivery")
		}
		if inst.PayloadsHeld() > 8 {
			t.Fatalf("retention cap breached: %d buffers", inst.PayloadsHeld())
		}
		router.Unregister(rbc.Protocol, instance)
	})
}
