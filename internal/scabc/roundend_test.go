package scabc

import (
	"crypto/rand"
	"fmt"
	"slices"
	"testing"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/group"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/threnc"
	"sintra/internal/wire"
)

// stage is party 0's instance on a router that never runs: the test
// orders ciphertexts, ends rounds and hands it SHARES messages in place,
// and the log lists what reached Deliver and EndRound.
type stage struct {
	t    *testing.T
	s    *SCABC
	reg  *obs.Registry
	enc  *threnc.Params
	keys []*threnc.SecretKey
	seq  int64
	log  []string
}

func newStage(t *testing.T) *stage {
	t.Helper()
	st := adversary.MustThreshold(4, 1)
	enc, keys, err := threnc.Deal(group.TestDefault(), st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(4, 0, netsim.NewRandomScheduler(1))
	t.Cleanup(net.Stop)
	h := &stage{t: t, reg: obs.NewRegistry(), enc: enc, keys: keys}
	router := engine.NewRouter(net.Endpoint(0))
	router.SetObserver(h.reg)
	h.s = New(Config{
		Router:   router,
		Struct:   st,
		Instance: "notary",
		Enc:      enc,
		EncKey:   keys[0],
		Deliver:  func(_ int64, req []byte) { h.log = append(h.log, string(req)) },
		EndRound: func(r abc.Round) {
			h.log = append(h.log, fmt.Sprintf("|%d:%d-%d-%d", r.Number, r.First, r.End, r.Skipped))
		},
	})
	return h
}

// encrypt returns a valid ciphertext of request, and its encoding.
func (h *stage) encrypt(request string) (*threnc.Ciphertext, []byte) {
	ct, err := h.enc.Encrypt([]byte(request), []byte("notary"), rand.Reader)
	if err != nil {
		h.t.Fatal(err)
	}
	return ct, wire.MustMarshalBody(ct)
}

// order has the ordering layer deliver payloads, then end round number.
func (h *stage) order(number int64, payloads ...[]byte) {
	first := h.seq
	for _, p := range payloads {
		h.s.onOrdered(h.seq, p)
		h.seq++
	}
	h.s.onRoundEnd(abc.Round{Number: number, First: first, End: h.seq})
}

// shares hands the instance party from's SHARES message for a round with
// a list per ciphertext: its shares of each non-nil one, none for nil.
func (h *stage) shares(from int, number int64, cts ...*threnc.Ciphertext) {
	lists := make([][]threnc.Share, len(cts))
	for k, ct := range cts {
		if ct != nil {
			lists[k] = h.sharesOf(from, ct)
		}
	}
	h.send(from, sharesBody{Round: number, Shares: lists})
}

func (h *stage) sharesOf(from int, ct *threnc.Ciphertext) []threnc.Share {
	shares, err := h.enc.DecryptShares(h.keys[from], ct, rand.Reader)
	if err != nil {
		h.t.Fatal(err)
	}
	return shares
}

func (h *stage) send(from int, body sharesBody) {
	h.s.handle(from, typeShares, wire.MustMarshalBody(body))
}

func (h *stage) expect(want ...string) {
	h.t.Helper()
	if !slices.Equal(h.log, want) {
		h.t.Fatalf("log %q, want %q", h.log, want)
	}
}

// TestRoundEndAfterLastDelivery: a round is delivered, and EndRound fires
// once for it, when its last ciphertext is decrypted or skipped — also
// when a later ciphertext of the round decrypts before an earlier one,
// when every ciphertext is invalid, and when the shares arrived before the
// round ended here. A round that ordered nothing fires nothing. Party 0's
// own shares count from the round's end, so one other party's shares open
// a ciphertext.
func TestRoundEndAfterLastDelivery(t *testing.T) {
	h := newStage(t)

	// Round 1 orders a and b; b decrypts first.
	a, aEnc := h.encrypt("a")
	b, bEnc := h.encrypt("b")
	h.order(1, aEnc, bEnc)
	h.expect()
	h.shares(1, 1, nil, b)
	h.expect()
	h.shares(3, 1, a, nil)
	h.expect("a", "b", "|1:0-2-0")

	// Round 2 orders two invalid ciphertexts, round 3 nothing.
	h.order(2, []byte("not a ciphertext"), []byte("nor this"))
	h.order(3)
	h.expect("a", "b", "|1:0-2-0", "|2:2-2-2")

	// Round 4's shares arrive before it ends here.
	c, cEnc := h.encrypt("c")
	h.shares(1, 4, c)
	h.expect("a", "b", "|1:0-2-0", "|2:2-2-2")
	h.order(4, cEnc)
	h.expect("a", "b", "|1:0-2-0", "|2:2-2-2", "c", "|4:2-3-0")
	if len(h.s.rounds) != 0 || len(h.s.queue) != 0 || len(h.s.open) != 0 {
		t.Fatalf("%d rounds, %d queued and %d open ciphertexts left over", len(h.s.rounds), len(h.s.queue), len(h.s.open))
	}
}

// TestByzantineSharesShape: party 3's SHARES messages with the wrong
// number of share lists, with shares for a skipped ciphertext, or with a
// forged share are rejected and counted, early or not, and none of their
// shares counts, though any one of them would open a ciphertext beside
// party 0's own: party 0 and party 1 alone decrypt the round.
func TestByzantineSharesShape(t *testing.T) {
	h := newStage(t)
	a, aEnc := h.encrypt("a")
	b, bEnc := h.encrypt("b")
	forged := h.sharesOf(3, b)
	forged[0].Value = h.enc.Group().Generator()
	invalid := []byte("not a ciphertext")

	// Round 1 orders a, an invalid ciphertext and b.
	h.send(3, sharesBody{Round: 1, Shares: [][]threnc.Share{h.sharesOf(3, a)}})
	h.order(1, aEnc, invalid, bEnc)
	real3 := [][]threnc.Share{h.sharesOf(3, a), nil, h.sharesOf(3, b)}
	for _, lists := range [][][]threnc.Share{
		nil,
		real3[:2],
		append(slices.Clone(real3), nil),
		{real3[0], h.sharesOf(3, a), real3[2]},
		{nil, nil, forged},
	} {
		h.send(3, sharesBody{Round: 1, Shares: lists})
	}
	if n := h.reg.Snapshot().Counter("scabc.shares.rejected"); n != 6 {
		t.Fatalf("scabc.shares.rejected = %d, want 6", n)
	}
	h.expect()
	h.shares(1, 1, a, nil, b)
	h.expect("a", "b", "|1:0-2-1")
}

// TestUndecryptableCiphertextSkipped: a ciphertext made under another
// service key carries a valid proof, but its payload does not open under
// the combined shares of this one. It is skipped like an invalid one, and
// its round and the next are delivered.
func TestUndecryptableCiphertextSkipped(t *testing.T) {
	h := newStage(t)
	other, _, err := threnc.Deal(h.enc.Group(), adversary.MustThreshold(4, 1), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	alien, err := other.Encrypt([]byte("alien"), []byte("notary"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, aEnc := h.encrypt("a")
	h.order(1, wire.MustMarshalBody(alien), aEnc)
	h.shares(1, 1, alien, a)
	b, bEnc := h.encrypt("b")
	h.order(2, bEnc)
	h.shares(1, 2, b)
	h.expect("a", "|1:0-1-1", "b", "|2:1-2-0")
}
