package wire_test

import (
	"bytes"
	"testing"

	"sintra/internal/wire"
)

// shareBurst mirrors the shape of a coin/decryption share exchange body:
// a round tag plus a handful of group-element-sized byte strings.
type shareBurst struct {
	Round  int
	Shares [][]byte
}

func benchBody() *shareBurst {
	b := &shareBurst{Round: 7}
	for i := 0; i < 4; i++ {
		b.Shares = append(b.Shares, bytes.Repeat([]byte{byte(i + 1)}, 128))
	}
	return b
}

// BenchmarkMarshalBody tracks the allocation cost of body encoding on the
// hot send path: one exact-size output slice per body.
func BenchmarkMarshalBody(b *testing.B) {
	body := benchBody()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.MarshalBody(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalBody tracks the receive side: one allocation per
// decoded byte slice and the slice of slices, nothing per type.
func BenchmarkUnmarshalBody(b *testing.B) {
	data := wire.MustMarshalBody(benchBody())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out shareBurst
		if err := wire.UnmarshalBody(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeMessage covers the full envelope path the transport uses
// per outbound frame.
func BenchmarkEncodeMessage(b *testing.B) {
	m := &wire.Message{
		From:     2,
		To:       5,
		Protocol: "scabc",
		Instance: "epoch-1",
		Type:     "SHARES",
		Payload:  wire.MustMarshalBody(benchBody()),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeMessage(m); err != nil {
			b.Fatal(err)
		}
	}
}
