// By-reference proposals: the paper's client sends every request to all
// n servers, so an honest replica normally holds the bytes before any
// proposal mentions them. A signed proposal embeds only the payloads below
// the proposer's CodedThreshold and names every larger one by its SHA-256
// digest; the bytes come from each replica's own digest-keyed store,
// filled by the client's copy of the request, byte for byte. The same
// store keeps every accepted proposal's encoding under its digest, the
// name an agreement value gives it, so proposals and payloads are fetched
// alike.
//
// Validity is availability-gated: a proposal counts toward this party's
// list, and a list passes external validity, only when every proposal it
// names and every digest they reference is held here (or delivered).
// Liveness conditions replace timers, and anything missing is asked only
// of a party one of them covers, when it does — a peer that lacks the
// bytes drops the ask. An honest proposer holds what it references: an
// accepted proposal sends FETCH to its proposer. An honest party holds
// what the list it proposes for agreement names and references: such a
// list sends FETCH to its author. A decided list was accepted by a quorum,
// so has an honest holder: a decide parked on anything missing sends FETCH
// to all. Within a round no peer is asked twice for a digest and none is
// answered twice; the next round starts afresh. Answers are hash-checked
// and kept only for a digest being tracked.

package abc

import (
	"bytes"
	"crypto/sha256"
	"sort"

	"sintra/internal/adversary"
)

// DefaultCodedThreshold is the payload size in bytes from which a
// proposal references instead of embeds when Config.CodedThreshold is zero.
const DefaultCodedThreshold = 4096

// maxProposalEntries bounds the payloads (inline plus referenced) one
// proposal may carry; receivers drop larger ones, so a Byzantine header
// cannot make a replica track or fetch without limit. The adaptive batch
// bound is clamped to it.
const maxProposalEntries = 1024

// storeLag is how many rounds a payload stays in the store after the
// round that delivered (or last referenced) it, so a replica up to that
// far behind can still fetch it — the lag agreement instances retire at.
const storeLag = 2

// fetchBody asks for a payload by digest; the answer is a payloadBody.
type fetchBody struct {
	Digest [32]byte
}

// held is one entry of the digest-keyed payload store: a payload or a
// proposal encoding this replica can contribute to a decided round and
// serve to peers, or — with a nil payload — one it has asked for.
type held struct {
	payload []byte
	// queued marks a locally submitted payload awaiting delivery, which
	// stays whatever expire — the round whose decide retires the entry —
	// says.
	queued bool
	expire int64
	// asked: the peers sent a FETCH this round; served: the peers given the
	// payload this round.
	asked, served adversary.Set
}

// entry returns the store entry for a digest, creating an empty one.
func (a *ABC) entry(d [32]byte) *held {
	e := a.store[d]
	if e == nil {
		e = &held{}
		a.store[d] = e
		a.storeSize.Set(int64(len(a.store)))
	}
	return e
}

// want records that a round-r proposal or list names refs, and sends
// a FETCH for each one missing here to the party that stands behind it:
// from, or everyone for a quorum (from < 0). Nobody stands behind what
// this party itself proposed and lost in a restart: it tries everyone
// too, but that ask counts against no peer.
func (a *ABC) want(round int64, from int, refs [][32]byte) {
	target := adversary.FullSet(a.cfg.Router.N()).Remove(a.self)
	if from >= 0 && from != a.self {
		target = adversary.SetOf(from)
	}
	for _, d := range refs {
		if _, done := a.delivered[d]; done {
			continue
		}
		e := a.entry(d)
		e.expire = max(e.expire, round+storeLag)
		if e.payload != nil {
			continue
		}
		for _, to := range target.Minus(e.asked).Members() {
			a.fetchSent.Inc()
			_ = a.cfg.Router.Send(to, Protocol, a.cfg.Instance, typeFetch, fetchBody{Digest: d})
		}
		if from != a.self {
			e.asked = e.asked.Union(target)
		}
	}
}

// allHeld reports whether every referenced digest is resolvable here:
// delivered already (it contributes nothing more) or in the store.
func (a *ABC) allHeld(refs [][32]byte) bool {
	for _, d := range refs {
		_, done := a.delivered[d]
		if e := a.store[d]; !done && (e == nil || e.payload == nil) {
			return false
		}
	}
	return true
}

// onFetch serves a held payload to a peer that asks for it, once a round.
func (a *ABC) onFetch(from int, d [32]byte) {
	e := a.store[d]
	if from >= a.cfg.Router.N() || e == nil || e.payload == nil || e.served.Has(from) {
		return
	}
	e.served = e.served.Add(from)
	a.fetchServed.Inc()
	_ = a.cfg.Router.Send(from, Protocol, a.cfg.Instance, typePayload, payloadBody{Payload: e.payload})
}

// onPayload consumes a FETCH answer: kept only when its hash is one this
// replica tracks (an entry without the bytes exists only because want
// asked for them) and still lacks.
func (a *ABC) onPayload(payload []byte) {
	if e := a.store[sha256.Sum256(payload)]; e == nil {
		a.fetchRejected.Inc()
	} else if e.payload == nil {
		e.payload = payload
		a.payloadArrived()
	}
}

// payloadArrived re-runs everything the availability gate held back when
// a wanted payload or proposal arrives: the proposal quorum, the
// agreement's unsigned SENDs, and a parked decide.
func (a *ABC) payloadArrived() {
	round := a.round.Load()
	a.maybeAgree()
	if mv, ok := a.mvbas[round]; ok {
		mv.Reeval()
	}
	if v := a.parked; v != nil && round == a.round.Load() {
		a.onDecide(round, v) // parks again, uncounted, while anything is missing
	}
}

// retireStore drops entries whose round has passed, once a round decides,
// and lets the next round ask and answer for the rest again.
func (a *ABC) retireStore(decided int64) {
	for d, e := range a.store {
		if !e.queued && e.expire <= decided {
			delete(a.store, d)
		}
		e.asked, e.served = 0, 0
	}
	a.storeSize.Set(int64(len(a.store)))
}

// settleQueue drops delivered payloads from the pending queue and orders
// the rest by digest — the order deliveries use — so what is re-proposed
// next round is deterministic across replicas regardless of arrival order.
func (a *ABC) settleQueue() {
	kept := a.queue[:0]
	for _, d := range a.queue {
		if e := a.store[d]; e != nil && e.queued {
			kept = append(kept, d)
		}
	}
	a.queue = kept
	sort.Slice(a.queue, func(i, j int) bool { return bytes.Compare(a.queue[i][:], a.queue[j][:]) < 0 })
}
