package bench

import (
	"fmt"

	"sintra"
)

// WALSweep prices journal-before-send durability: every protocol-critical
// message held back until its record is fsynced (group-committed) to a
// throwaway data directory, against memoryless replicas. Columns:
// journaled outbound messages, the commits that made them durable, and
// the final on-disk footprint after checkpoint-driven truncation.
var WALSweep = CostSweep{
	what:  "durability",
	title: fmt.Sprintf("Write-ahead log cost (full service stack, checkpoint interval %d)", sweepInterval),
	on:    "journaled", off: "no-wal",
	columns:   []string{"wal.records", "wal.fsyncs", "wal.bytes"},
	onTuning:  sintra.Tuning{CheckpointInterval: sweepInterval},
	offTuning: sintra.Tuning{CheckpointInterval: sweepInterval},
	dataDir:   true,
	values: func(snap sintra.MetricsSnapshot) []int64 {
		return []int64{snap.Counter("wal.records"), snap.Counter("wal.fsyncs"), snap.Gauges["wal.size.bytes"].Value}
	},
}
