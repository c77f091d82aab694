package wire_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sintra/internal/abc"
	"sintra/internal/coin"
	"sintra/internal/dleq"
	"sintra/internal/group"
	"sintra/internal/wire"
)

// sampleShare is a coin share on the fixed P-256 backend, so its bytes do
// not depend on SINTRA_GROUP.
func sampleShare() coin.Share {
	g := group.P256()
	return coin.Share{Party: 1, ID: 2, Value: g.Generator(),
		Proof: &dleq.Proof{C: g.NewScalar(3), Z: g.NewScalar(4)}}
}

// TestGoldenLayout pins the format rule by rule, and the envelope. The
// body owners (aba, cbc, mvba, abc, core) pin their hot types the same way,
// so reordering or re-typing a field fails a test instead of silently
// changing Format.
func TestGoldenLayout(t *testing.T) {
	type inner struct {
		A uint16
		B string
	}
	cases := []struct {
		name string
		v    any
		hex  string
	}{
		{"zigzag ints", struct{ A, B, C int64 }{0, -1, 300}, "0001d804"},
		{"uvarints", struct {
			A uint8
			B uint64
		}{200, 1 << 14}, "c801808001"},
		{"bool", struct{ A, B bool }{true, false}, "0100"},
		{"bytes, empty and nil", struct{ A, B, C []byte }{[]byte{0xab}, []byte{}, nil}, "01ab0000"},
		{"byte array raw", struct{ A [3]byte }{[3]byte{1, 2, 3}}, "010203"},
		{"string", struct{ S string }{"aba"}, "03616261"},
		{"slice of structs", struct{ L []inner }{[]inner{{1, "x"}, {2, ""}}}, "020101780200"},
		{"pointers", struct{ P, Q *inner }{nil, &inner{A: 5}}, "00010500"},
		{"unexported fields skipped", struct {
			A int
			b int
		}{A: 1, b: 9}, "02"},
		{"binary marshaler", struct{ P *group.Point }{group.P256().Generator()},
			"012204036b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"},
		{"envelope", wire.Message{From: 2, To: 3, Protocol: "aba", Instance: "0/svc/r1", Type: "BVAL", Payload: []byte{6, 1}},
			"0406036162610830" + "2f7376632f7231" + "044256414c020601"},
	}
	for _, c := range cases {
		got, err := wire.MarshalBody(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("%s: encoded %x, want %s", c.name, got, c.hex)
		}
		back := reflect.New(reflect.TypeOf(c.v)).Interface()
		if err := wire.UnmarshalBody(got, back); err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
		}
	}
}

// TestDecodeCopiesAndNils checks that decoded byte slices do not alias the
// input and that empty slices decode as nil.
func TestDecodeCopiesAndNils(t *testing.T) {
	data := wire.MustMarshalBody(struct{ A, B []byte }{[]byte("abc"), []byte{}})
	var out struct{ A, B []byte }
	if err := wire.UnmarshalBody(data, &out); err != nil {
		t.Fatal(err)
	}
	data[1] = 'X'
	if string(out.A) != "abc" || out.B != nil {
		t.Fatalf("decoded %q %#v: aliases the input or keeps an empty slice", out.A, out.B)
	}
}

// TestDecodeRejectsNonCanonical: every input that decodes re-encodes to
// itself, so each alternative spelling of a value is refused.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	type body struct {
		N int8
		F bool
		P *struct{ X int }
	}
	if err := wire.UnmarshalBody([]byte{0x02, 0x01, 0x01, 0x04}, new(body)); err != nil {
		t.Fatalf("canonical body refused: %v", err)
	}
	for name, in := range map[string][]byte{
		"overlong varint":  {0x82, 0x00, 0x01, 0x00},
		"bool byte 2":      {0x02, 0x02, 0x00},
		"presence byte 2":  {0x02, 0x01, 0x02},
		"trailing byte":    {0x02, 0x01, 0x00, 0x00},
		"int8 overflow":    {0x80, 0x02, 0x01, 0x00},
		"truncated":        {0x02, 0x01},
		"varint > 64 bits": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01, 0x00},
	} {
		if err := wire.UnmarshalBody(in, new(body)); err == nil {
			t.Errorf("%s: %x decoded", name, in)
		}
	}
}

type recursive struct {
	Next *recursive
}

// TestUnsupportedTypesError: maps, channels, functions, interfaces, floats
// and recursive types are errors at marshal and at unmarshal, not panics.
func TestUnsupportedTypesError(t *testing.T) {
	for _, v := range []any{
		&struct{ M map[int][]byte }{},
		&struct{ C chan int }{},
		&struct{ F func() }{},
		&struct{ I any }{},
		&struct{ F float64 }{},
		&recursive{},
		&struct{ L []struct{} }{},
		&struct{ x int }{},
	} {
		if _, err := wire.MarshalBody(v); err == nil {
			t.Errorf("%T marshalled", v)
		}
		if err := wire.UnmarshalBody([]byte{0}, v); err == nil {
			t.Errorf("%T unmarshalled", v)
		}
	}
	if err := wire.UnmarshalBody([]byte{0}, struct{ X int }{}); err == nil {
		t.Error("decoded into a non-pointer")
	}
}

// TestUnmarshalBodyRefusesHugeCounts: a 16-byte input that claims 2⁴⁰
// bytes or elements errors without allocating them — every length and
// count is checked against the bytes that remain first.
func TestUnmarshalBodyRefusesHugeCounts(t *testing.T) {
	claim := func(prefix ...byte) []byte {
		b := append(prefix, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2⁴⁰
		return append(b, make([]byte, 16-len(b))...)
	}
	targets := []struct {
		v    any
		data []byte
	}{
		{new(struct{ B []byte }), claim()},
		{new(struct{ S string }), claim()},
		{new(struct{ L [][]byte }), claim()},
		{new(struct{ L []struct{ A, B, C int64 } }), claim()},
		{new(struct{ L []abc.SignedProposal }), claim()},
		{new(struct {
			Round  int
			Shares []coin.Share
		}), claim(0x02)},
		{new(struct{ P []*group.Point }), claim()},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, tc := range targets {
		if err := wire.UnmarshalBody(tc.data, tc.v); err == nil {
			t.Errorf("%T decoded from %x", tc.v, tc.data)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d 16-byte inputs allocated %d bytes", len(targets), grew)
	}
}

var freshTypes atomic.Int64

// TestConcurrentFirstDecode has 8 goroutines decode a type no goroutine has
// seen before, all at once: each must get a complete plan (no half-built
// one from the cache) and the same result. Run it under -race.
func TestConcurrentFirstDecode(t *testing.T) {
	type shape struct {
		Round  int
		Shares []coin.Share
		Tag    []byte
	}
	data := wire.MustMarshalBody(shape{Round: 7, Shares: []coin.Share{sampleShare(), sampleShare()}, Tag: []byte("t")})
	// A struct type made at run time under a new field name is one the
	// codec has never planned, however often the test runs.
	fresh := reflect.StructOf([]reflect.StructField{
		{Name: "Round", Type: reflect.TypeOf(0)},
		{Name: "Shares", Type: reflect.TypeOf([]coin.Share(nil))},
		{Name: fmt.Sprintf("Tag%d", freshTypes.Add(1)), Type: reflect.TypeOf([]byte(nil))},
	})
	const workers = 8
	start := make(chan struct{})
	out := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := reflect.New(fresh).Interface()
			<-start
			if errs[i] = wire.UnmarshalBody(data, v); errs[i] == nil {
				out[i], errs[i] = wire.MarshalBody(v)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range out {
		if errs[i] != nil || !bytes.Equal(out[i], data) {
			t.Fatalf("worker %d: %v, re-encoded %x, want %x", i, errs[i], out[i], data)
		}
	}
}
