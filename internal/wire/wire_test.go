package wire_test

import (
	"strings"
	"testing"
	"testing/quick"

	"sintra/internal/wire"
)

func TestMarshalRoundTrip(t *testing.T) {
	type body struct {
		A int64
		B []byte
		C string
	}
	f := func(a int64, b []byte, c string) bool {
		data, err := wire.MarshalBody(body{A: a, B: b, C: c})
		if err != nil {
			return false
		}
		var out body
		if err := wire.UnmarshalBody(data, &out); err != nil {
			return false
		}
		return out.A == a && string(out.B) == string(b) && out.C == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalErrors(t *testing.T) {
	if _, err := wire.MarshalBody(make(chan int)); err == nil {
		t.Fatal("channel marshalled")
	}
	var out struct{ X int }
	for _, in := range [][]byte{
		{0xFF},       // truncated varint
		{0x80, 0x00}, // overlong zero
		{0x02, 0x00}, // trailing byte
	} {
		if err := wire.UnmarshalBody(in, &out); err == nil {
			t.Fatalf("garbage %x unmarshalled", in)
		}
	}
}

func TestMustMarshalPanicsOnBadBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	wire.MustMarshalBody(make(chan int))
}

func TestMessageSizeAndString(t *testing.T) {
	m := wire.Message{
		From: 1, To: 2, Protocol: "aba", Instance: "svc/r1", Type: "BVAL",
		Payload: []byte{1, 2, 3},
	}
	if m.Size() <= len(m.Payload) {
		t.Fatal("Size ignores headers")
	}
	s := m.String()
	for _, part := range []string{"aba", "svc/r1", "BVAL", "1→2", "3B"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String %q missing %q", s, part)
		}
	}
}
