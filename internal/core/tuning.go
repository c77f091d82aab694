package core

import "sintra/internal/abc"

// DefaultCheckpointInterval is the checkpoint period, in delivered
// payloads, under Tuning.CheckpointInterval 0.
const DefaultCheckpointInterval = 256

// Tuning is every knob of a replica that is not part of the deployment
// itself (keys, transport, service, directories). It is declared here and
// nowhere else: NodeConfig embeds it, the simulator's WithTuning carries
// it, and sintra-node binds its flags into it.
//
// One convention holds for every numeric field: 0 selects the default, a
// negative value turns the feature off, a positive value sets it. The
// zero Tuning is the recommended configuration.
//
// Fields marked "must match" change what honest replicas send, accept or
// prune, so every replica of a deployment has to run the same value; the
// others are local to one replica.
type Tuning struct {
	// CheckpointInterval is the checkpoint/GC period in delivered
	// payloads: every interval the replicas threshold-sign a digest of
	// the service state, and the stable checkpoint garbage-collects
	// ordering history and the journal — and is what a restarted replica
	// catches up from. Default 256; off leaves memory to the ordering
	// layer's fixed dedup-history bound. Effective in ModeAtomic with a
	// Snapshotter service. Must match.
	CheckpointInterval int64
	// CodedThreshold is the per-payload size in bytes from which a
	// proposal references a request by digest instead of embedding it:
	// every replica already has the bytes from the client, and one that
	// does not pulls them once. Default 4096; off embeds every payload.
	// Local: proposals say per entry which form they use.
	CodedThreshold int
	// NoFsync stops the journal under DataDir from calling fsync: records
	// count as committed once written. For tests and benchmarks on
	// throwaway data; a real deployment must leave it false. Local.
	NoFsync bool
}

// knob resolves one numeric field under the Tuning convention: the
// default for 0, -1 for off, the value otherwise. A default of 0 means the
// feature defaults to off.
func knob[T int | int64](v, def T) T {
	if v == 0 {
		v = def
	}
	if v <= 0 {
		return -1
	}
	return v
}

// resolved writes every default out, so that NewNode and the layers under
// it see explicit values only: each numeric field comes back positive, or
// -1 for off. Two Tunings configure a replica identically exactly when
// their resolved forms are equal.
func (t Tuning) resolved() Tuning {
	t.CheckpointInterval = knob(t.CheckpointInterval, DefaultCheckpointInterval)
	t.CodedThreshold = knob(t.CodedThreshold, abc.DefaultCodedThreshold)
	return t
}
