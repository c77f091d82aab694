package wire

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// plan codes one Go type in the layout of DESIGN §4.8. It is built once per
// type and published to plans only when complete: the verify workers decode
// in parallel.
type plan struct {
	kind   reflect.Kind // Int64 for every signed, Uint64 for every unsigned kind
	typ    reflect.Type // Slice: the slice; Pointer: the element
	elem   *plan        // Slice, Pointer
	fields []*plan      // Struct: the exported fields,
	index  []int        // at these field indices
	n      int          // Array ([N]byte): the length
	unit   int          // > 0: a count of items of at least unit bytes comes first
	min    int          // fewest bytes a value encodes to
	addr   bool         // encoding needs an addressable value
}

// Kinds beyond reflect's: []byte and BinaryMarshalers.
const (
	byteSlice = reflect.UnsafePointer + 1 + iota
	binaryKind
)

var (
	plans             sync.Map // reflect.Type → *plan
	errShort          = errors.New("truncated")
	errNonCanonical   = errors.New("not canonical")
	binaryMarshaler   = reflect.TypeFor[encoding.BinaryMarshaler]()
	binaryUnmarshaler = reflect.TypeFor[encoding.BinaryUnmarshaler]()
	// scratch recycles encode buffers; MarshalBody returns an exact copy.
	scratch = sync.Pool{New: func() any { return new([]byte) }}
)

// MarshalBody encodes a protocol message body; a pointer encodes as what it
// points to. The returned slice is freshly allocated and owned by the caller.
func MarshalBody(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() || rv.Kind() == reflect.Pointer && rv.IsNil() {
		return nil, fmt.Errorf("wire: marshal body: nil %T", v)
	}
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return nil, fmt.Errorf("wire: marshal body: %w", err)
	}
	if p.addr && !rv.CanAddr() { // a copy whose address encoding can take
		rv = reflect.New(rv.Type()).Elem()
		rv.Set(reflect.ValueOf(v))
	}
	buf := scratch.Get().(*[]byte)
	b, err := p.encode((*buf)[:0], rv)
	out := append([]byte(nil), b...)
	if cap(b) <= 1<<20 {
		*buf = b
		scratch.Put(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: marshal body: %w", err)
	}
	return out, nil
}

// MustMarshalBody is MarshalBody for bodies that cannot fail (fixed
// struct types); it panics on the programming error of an unencodable type.
func MustMarshalBody(v any) []byte {
	b, err := MarshalBody(v)
	if err != nil {
		panic(err)
	}
	return b
}

// UnmarshalBody decodes a body produced by MarshalBody into what v points
// to. The input is attacker-controlled — a corrupted party chooses every
// payload byte — and any input either decodes canonically or errors.
func UnmarshalBody(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: unmarshal body: target %T is not a non-nil pointer", v)
	}
	p, err := planFor(rv.Type().Elem())
	if err == nil {
		data, err = p.decode(data, rv.Elem())
	}
	if err == nil && len(data) != 0 {
		err = errNonCanonical // trailing bytes
	}
	if err != nil {
		err = fmt.Errorf("wire: unmarshal body: %w", err)
	}
	return err
}

func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p, err := build(t, map[reflect.Type]bool{})
	if err == nil {
		actual, _ := plans.LoadOrStore(t, p)
		p = actual.(*plan)
	}
	return p, err
}

// build makes t's plan; building holds the types being built above it, so
// a recursive type is refused rather than looped on.
func build(t reflect.Type, building map[reflect.Type]bool) (*plan, error) {
	if building[t] {
		return nil, fmt.Errorf("recursive type %s", t)
	}
	building[t] = true
	defer delete(building, t)
	p := &plan{kind: t.Kind(), typ: t, min: 1}
	var err error
	switch k := t.Kind(); {
	case reflect.PointerTo(t).Implements(binaryMarshaler) && reflect.PointerTo(t).Implements(binaryUnmarshaler):
		p.kind, p.unit, p.addr = binaryKind, 1, true
	case k == reflect.Bool:
	case k >= reflect.Int && k <= reflect.Int64:
		p.kind = reflect.Int64
	case k >= reflect.Uint && k <= reflect.Uint64:
		p.kind = reflect.Uint64
	case k == reflect.String:
		p.unit = 1
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		p.kind, p.unit = byteSlice, 1
	case k == reflect.Array && t.Elem().Kind() == reflect.Uint8:
		p.n, p.min, p.addr = t.Len(), t.Len(), true
	case k == reflect.Slice || k == reflect.Pointer:
		if p.elem, err = build(t.Elem(), building); err != nil {
			return nil, err
		}
		switch {
		case k == reflect.Pointer:
			p.typ = t.Elem()
		case p.elem.min == 0:
			return nil, fmt.Errorf("slice of zero-size %s", t.Elem())
		default:
			p.unit = p.elem.min
		}
	case k == reflect.Struct:
		p.min = 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fp, err := build(f.Type, building)
				if err != nil {
					return nil, fmt.Errorf("%s.%s: %w", t, f.Name, err)
				}
				p.fields, p.index = append(p.fields, fp), append(p.index, i)
				p.min += fp.min
				p.addr = p.addr || fp.addr
			}
		}
		if len(p.fields) == 0 && t.NumField() > 0 {
			return nil, fmt.Errorf("type %s has no exported fields", t)
		}
	default:
		return nil, fmt.Errorf("unsupported type %s", t)
	}
	return p, nil
}

func (p *plan) encode(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return p.elem.encode(append(b, 1), v.Elem())
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...), nil
	case byteSlice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		return append(b, v.Bytes()...), nil
	case binaryKind:
		raw, err := v.Addr().Interface().(encoding.BinaryMarshaler).MarshalBinary()
		return append(binary.AppendUvarint(b, uint64(len(raw))), raw...), err
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = p.elem.encode(b, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < len(p.fields) && err == nil; i++ {
			b, err = p.fields[i].encode(b, v.Field(p.index[i]))
		}
	}
	return b, err
}

// uvarint reads a minimally encoded uvarint.
func uvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShort // or over 64 bits, which no encoder writes
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, errNonCanonical
	}
	return x, b[n:], nil
}

func (p *plan) decode(b []byte, v reflect.Value) ([]byte, error) {
	n, err := p.n, error(nil)
	if p.unit > 0 {
		var x uint64
		if x, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if x > uint64(len(b)/p.unit) {
			return nil, errShort
		}
		n = int(x)
	}
	switch p.kind {
	case reflect.Bool, reflect.Int64, reflect.Uint64, reflect.Pointer:
		x, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		switch i := int64(x>>1) ^ -int64(x&1); { // i: x zigzag-decoded
		case p.kind == reflect.Int64 && !v.OverflowInt(i):
			v.SetInt(i)
		case p.kind == reflect.Uint64 && !v.OverflowUint(x):
			v.SetUint(x)
		case p.kind == reflect.Int64 || p.kind == reflect.Uint64 || x > 1:
			return nil, errNonCanonical
		case p.kind == reflect.Bool:
			v.SetBool(x == 1)
		case x == 0:
			v.SetZero()
		default:
			v.Set(reflect.New(p.typ))
			return p.elem.decode(rest, v.Elem())
		}
		return rest, nil
	case reflect.String:
		v.SetString(string(b[:n]))
	case byteSlice:
		if v.SetZero(); n > 0 { // an empty slice decodes as nil
			v.SetBytes(append([]byte(nil), b[:n]...))
		}
	case reflect.Array:
		if len(b) < n {
			return nil, errShort
		}
		copy(v.Bytes(), b)
	case binaryKind:
		// A capped sub-slice: by its contract the unmarshaler copies what it keeps.
		err = v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b[:n:n])
	case reflect.Slice:
		if v.SetZero(); n > 0 {
			v.Set(reflect.MakeSlice(p.typ, n, n))
		}
		for i := 0; i < n && err == nil; i++ {
			b, err = p.elem.decode(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		for i := 0; i < len(p.fields) && err == nil; i++ {
			b, err = p.fields[i].decode(b, v.Field(p.index[i]))
		}
		return b, err
	}
	return b[n:], err
}
