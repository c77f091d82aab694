package main

import (
	"flag"
	"io"
	"testing"

	"sintra"
)

// TestTuningFlags parses the two operator knobs on a private FlagSet
// and checks the Tuning that run hands to NewNode: the flags bind straight
// into its fields, and a knob with no flag given stays at its default.
func TestTuningFlags(t *testing.T) {
	fs := flag.NewFlagSet("sintra-node", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tuning := tuningFlags(fs)
	if err := fs.Parse([]string{"-checkpoint-interval", "7", "-coded-threshold", "-1"}); err != nil {
		t.Fatal(err)
	}
	if want := (sintra.Tuning{CheckpointInterval: 7, CodedThreshold: -1}); *tuning != want {
		t.Fatalf("parsed %+v, want %+v", *tuning, want)
	}

	fs = flag.NewFlagSet("sintra-node", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tuning = tuningFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *tuning != (sintra.Tuning{}) {
		t.Fatalf("no flags given, yet Tuning is %+v", *tuning)
	}
}
