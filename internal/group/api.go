// Package group implements the prime-order groups underlying all of the
// threshold-cryptographic primitives in this repository, behind a
// backend-agnostic Scalar/Point API.
//
// Two backends satisfy the Group interface:
//
//   - the Z_p* backend (modp2048, test512, test256): the subgroup of
//     quadratic residues of Z_p* for a safe prime p = 2q + 1, the group
//     of the paper (Cachin, "Distributing Trust on the Internet", DSN
//     2001, §2.1), kept as the wire-compatible compatibility mode; and
//   - the P-256 backend: the NIST P-256 elliptic curve over the stdlib
//     constant-time scalar multiplication, with order-of-magnitude
//     cheaper exponentiations and ~8x smaller wire elements.
//
// The Decisional Diffie-Hellman problem is assumed hard in both groups;
// the threshold coin-tossing scheme (internal/coin) and the TDH2
// threshold cryptosystem (internal/threnc) base their security on it.
//
// Scalars and Points are opaque immutable values created by a Group.
// Their self-describing binary encoding carries a one-byte group ID, so
// a share dealt over one group can never be silently misinterpreted by
// a party running another (see WireDecodeElement).
package group

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"sync/atomic"

	"sintra/internal/modexp"
)

// Common errors returned by the decoding helpers.
var (
	// ErrNotInGroup is returned when a decoded value is not a member of
	// the prime-order group.
	ErrNotInGroup = errors.New("group: value is not a group element")
	// ErrBadLength is returned when an encoded value has the wrong size.
	ErrBadLength = errors.New("group: encoded value has wrong length")
	// ErrGroupMismatch is returned when a self-describing encoding names
	// a different group than the one decoding it — a MODP node fed a
	// P-256 share, or vice versa.
	ErrGroupMismatch = errors.New("group: encoded value belongs to a different group")
	// ErrUnknownGroup is returned for encodings whose group ID byte does
	// not name any known parameter set.
	ErrUnknownGroup = errors.New("group: unknown group id")
)

// GroupID is the one-byte identifier a parameter set stamps into every
// encoded Scalar and Point (the wire prefix of satellite encodings).
// IDs are append-only wire constants: never renumber them.
type GroupID byte

// Known parameter-set IDs.
const (
	// IDModp2048 is the RFC 3526 2048-bit Z_p* group.
	IDModp2048 GroupID = 1
	// IDTest512 is the 512-bit Z_p* testing group.
	IDTest512 GroupID = 2
	// IDTest256 is the 256-bit Z_p* testing group.
	IDTest256 GroupID = 3
	// IDP256 is the NIST P-256 elliptic-curve group.
	IDP256 GroupID = 4
)

// Named parameter sets, for configuration files and flags.
const (
	// NameMODP2048 selects the RFC 3526 2048-bit Z_p* group.
	NameMODP2048 = "modp2048"
	// NameTest512 selects the 512-bit Z_p* testing group.
	NameTest512 = "test512"
	// NameTest256 selects the 256-bit Z_p* testing group.
	NameTest256 = "test256"
	// NameP256 selects the NIST P-256 elliptic-curve group.
	NameP256 = "p256"
)

// Scalar is an opaque scalar modulo a group's order. Scalars are
// immutable and safe for concurrent use; they are created by a Group
// (RandomScalar, HashToScalar, the scalar arithmetic) or decoded from
// bytes. The zero value is invalid.
type Scalar struct {
	id GroupID
	v  *big.Int
}

// GroupID reports which parameter set the scalar belongs to.
func (s *Scalar) GroupID() GroupID { return s.id }

// IsZero reports whether the scalar is 0.
func (s *Scalar) IsZero() bool { return s != nil && s.v != nil && s.v.Sign() == 0 }

// Equal reports whether two scalars are the same value of the same group.
func (s *Scalar) Equal(o *Scalar) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.id == o.id && s.v.Cmp(o.v) == 0
}

func (s *Scalar) String() string {
	if s == nil || s.v == nil {
		return "Scalar(nil)"
	}
	return fmt.Sprintf("Scalar(%d:%x)", s.id, s.v)
}

// MarshalBinary encodes the scalar as its group ID byte followed by the
// fixed-width big-endian value.
func (s *Scalar) MarshalBinary() ([]byte, error) {
	if s == nil || s.v == nil {
		return nil, errors.New("group: marshal of invalid scalar")
	}
	b, err := byID(s.id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 1+b.ScalarLen())
	out[0] = byte(s.id)
	s.v.FillBytes(out[1:])
	return out, nil
}

// UnmarshalBinary decodes a self-describing scalar, validating its range
// against the order of the group its ID byte names.
func (s *Scalar) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return ErrBadLength
	}
	b, err := byID(GroupID(data[0]))
	if err != nil {
		return err
	}
	dec, err := b.DecodeScalar(data[1:])
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}

// GobEncode implements gob.GobEncoder with the MarshalBinary format, so
// protocol messages carrying scalars are self-describing on the wire.
func (s *Scalar) GobEncode() ([]byte, error) { return s.MarshalBinary() }

// GobDecode implements gob.GobDecoder.
func (s *Scalar) GobDecode(data []byte) error { return s.UnmarshalBinary(data) }

// Point is an opaque group element. Points are immutable and safe for
// concurrent use; they are created by a Group (exponentiations,
// HashToPoint, ...) or decoded from bytes. The zero value is invalid.
//
// A Point decoded from the network with UnmarshalBinary is structurally
// validated (length, range, on-curve) but — for the Z_p* backend — not
// necessarily subgroup-checked: IsElement performs the (memoization-free)
// membership test, which verifiers run on every value they use.
type Point struct {
	id GroupID
	// v is the Z_p* representation: a residue in [1, p-1].
	v *big.Int
	// x, y are the elliptic-curve affine coordinates; (0, 0) is the
	// point at infinity, following crypto/elliptic's convention.
	x, y *big.Int
	// member records that the point is a known subgroup member (created
	// by group arithmetic or a strict decode). Z_p* points decoded laxly
	// from the wire leave it false and pay a Jacobi test in IsElement.
	member bool
	// tab is the Z_p* fixed-base table Precompute gave this point.
	tab atomic.Pointer[modexp.Table]
}

// GroupID reports which parameter set the point belongs to.
func (p *Point) GroupID() GroupID { return p.id }

// Equal reports whether two points are the same element of the same group.
func (p *Point) Equal(o *Point) bool {
	if p == nil || o == nil {
		return p == o
	}
	if p.id != o.id {
		return false
	}
	if p.v != nil || o.v != nil {
		return p.v != nil && o.v != nil && p.v.Cmp(o.v) == 0
	}
	return p.x.Cmp(o.x) == 0 && p.y.Cmp(o.y) == 0
}

func (p *Point) String() string {
	if p == nil {
		return "Point(nil)"
	}
	if p.v != nil {
		return fmt.Sprintf("Point(%d:%x)", p.id, p.v)
	}
	return fmt.Sprintf("Point(%d:%x,%x)", p.id, p.x, p.y)
}

// MarshalBinary encodes the point as its group ID byte followed by the
// canonical fixed-width element encoding.
func (p *Point) MarshalBinary() ([]byte, error) {
	if p == nil || (p.v == nil && p.x == nil) {
		return nil, errors.New("group: marshal of invalid point")
	}
	b, err := byID(p.id)
	if err != nil {
		return nil, err
	}
	return append([]byte{byte(p.id)}, b.EncodeElement(p)...), nil
}

// UnmarshalBinary decodes a self-describing point. Structural validation
// (length, range, on-curve) always happens here; Z_p* subgroup membership
// is deferred to IsElement, which verifiers call on every value they use.
func (p *Point) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return ErrBadLength
	}
	b, err := byID(GroupID(data[0]))
	if err != nil {
		return err
	}
	dec, err := b.decodeElementLax(data[1:])
	if err != nil {
		return err
	}
	p.id, p.v, p.x, p.y, p.member = dec.id, dec.v, dec.x, dec.y, dec.member
	p.tab.Store(nil) // a table of the value p held before
	return nil
}

// GobEncode implements gob.GobEncoder with the MarshalBinary format, so
// protocol messages carrying elements are self-describing on the wire.
func (p *Point) GobEncode() ([]byte, error) { return p.MarshalBinary() }

// GobDecode implements gob.GobDecoder.
func (p *Point) GobDecode(data []byte) error { return p.UnmarshalBinary(data) }

// Term is one base^exp factor of a MultiExp product.
type Term struct {
	Base *Point
	Exp  *Scalar
}

// Group is a prime-order group with the operations the DL-based
// primitives need: exponentiation (with fixed-base precomputation and
// multi-exponentiation for interpolation), scalar-field arithmetic,
// hashing onto the group and the scalar field (the random oracles of the
// paper's proofs), and canonical encodings.
//
// All implementations are safe for concurrent use: the routers of one
// process share one Group, and no method mutates its arguments.
type Group interface {
	// Name identifies the parameter set (e.g. "modp2048", "p256").
	Name() string
	// ID is the one-byte wire identifier of the parameter set.
	ID() GroupID
	// ElementLen reports the fixed byte length of a canonical element
	// encoding (without the wire ID prefix).
	ElementLen() int
	// ScalarLen reports the fixed byte length of an encoded scalar.
	ScalarLen() int
	// Generator returns the group's generator. The returned pointer is
	// stable for the lifetime of the group.
	Generator() *Point
	// Identity returns the neutral element.
	Identity() *Point

	// RandomScalar draws a uniform scalar in [0, order) from rnd.
	RandomScalar(rnd io.Reader) (*Scalar, error)
	// RandomElement draws a uniform non-identity element from rnd.
	RandomElement(rnd io.Reader) (*Point, error)
	// NewScalar returns the scalar v mod order (v may be negative).
	NewScalar(v int64) *Scalar
	// AddScalar returns a+b mod order.
	AddScalar(a, b *Scalar) *Scalar
	// SubScalar returns a-b mod order.
	SubScalar(a, b *Scalar) *Scalar
	// MulScalar returns a*b mod order.
	MulScalar(a, b *Scalar) *Scalar
	// InvScalar returns the multiplicative inverse of a mod order.
	InvScalar(a *Scalar) *Scalar
	// NegScalar returns -a mod order.
	NegScalar(a *Scalar) *Scalar
	// IsScalar reports whether s is a valid scalar of this group.
	IsScalar(s *Scalar) bool
	// HashToScalar hashes arbitrary data to a scalar, standing in for
	// the random oracles of the Fiat-Shamir proofs. Inputs are
	// length-framed; domain separates use sites.
	HashToScalar(domain string, data ...[]byte) *Scalar
	// EncodeScalar serializes a scalar into fixed-width bytes.
	EncodeScalar(s *Scalar) []byte
	// DecodeScalar parses and validates a fixed-width scalar.
	DecodeScalar(b []byte) (*Scalar, error)

	// BaseExp returns Generator^e via fixed-base precomputation.
	BaseExp(e *Scalar) *Point
	// Exp returns base^e. Bases registered with Precompute (pointer
	// identity) take a fixed-base fast path where the backend has one.
	Exp(base *Point, e *Scalar) *Point
	// Mul returns the group operation a·b.
	Mul(a, b *Point) *Point
	// Inv returns the inverse of a.
	Inv(a *Point) *Point
	// Div returns a·b^-1.
	Div(a, b *Point) *Point
	// MulExp returns a^x · b^y, the simultaneous double exponentiation
	// of Chaum-Pedersen verification.
	MulExp(a *Point, x *Scalar, b *Point, y *Scalar) *Point
	// MultiExp returns Π base^exp over the terms, the workhorse of
	// interpolation in the exponent. Zero exponents are
	// skipped; an empty product is the identity.
	MultiExp(terms []Term) *Point
	// Precompute registers a fixed-base table for a long-lived base
	// (dealt verification keys, public keys). Backends without
	// per-base tables treat it as a no-op.
	Precompute(base *Point)
	// IsElement reports whether p is a member of this group. Points
	// produced by group arithmetic or strict decoding are known
	// members; laxly decoded Z_p* points pay a Jacobi test here.
	IsElement(p *Point) bool
	// HashToPoint hashes arbitrary data onto the group, standing in
	// for the random oracle H' of the coin-tossing scheme.
	HashToPoint(domain string, data ...[]byte) *Point
	// EncodeElement serializes an element into canonical fixed-width
	// bytes (no group ID prefix; this is the hash-input encoding and,
	// for the Z_p* backend, byte-identical to the pre-interface wire
	// format).
	EncodeElement(p *Point) []byte
	// DecodeElement parses and fully validates a canonical element.
	DecodeElement(b []byte) (*Point, error)
}

// backend extends Group with the package-internal decoding hooks the
// self-describing Scalar/Point codecs dispatch to.
type backend interface {
	Group
	// decodeElementLax validates structure (length, range, on-curve)
	// but may defer the subgroup membership test to IsElement.
	decodeElementLax(b []byte) (*Point, error)
}

// WireEncodeElement encodes an element with its one-byte group ID
// prefix — the self-describing form protocol payloads carry.
func WireEncodeElement(p *Point) ([]byte, error) { return p.MarshalBinary() }

// WireDecodeElement decodes a self-describing element for the given
// group, rejecting encodings of any other group with ErrGroupMismatch
// and fully validating membership.
func WireDecodeElement(g Group, b []byte) (*Point, error) {
	if len(b) < 1 {
		return nil, ErrBadLength
	}
	if GroupID(b[0]) != g.ID() {
		if _, err := byID(GroupID(b[0])); err != nil {
			return nil, err
		}
		return nil, ErrGroupMismatch
	}
	return g.DecodeElement(b[1:])
}

// WireEncodeScalar encodes a scalar with its one-byte group ID prefix.
func WireEncodeScalar(s *Scalar) ([]byte, error) { return s.MarshalBinary() }

// WireDecodeScalar decodes a self-describing scalar for the given group,
// rejecting encodings of any other group with ErrGroupMismatch.
func WireDecodeScalar(g Group, b []byte) (*Scalar, error) {
	if len(b) < 1 {
		return nil, ErrBadLength
	}
	if GroupID(b[0]) != g.ID() {
		if _, err := byID(GroupID(b[0])); err != nil {
			return nil, err
		}
		return nil, ErrGroupMismatch
	}
	return g.DecodeScalar(b[1:])
}

// ByName looks a parameter set up by its name, for configuration files.
func ByName(name string) (Group, error) {
	switch name {
	case NameMODP2048:
		return modp2048Group, nil
	case NameTest512:
		return test512Group, nil
	case NameTest256:
		return test256Group, nil
	case NameP256:
		return p256Group, nil
	default:
		return nil, fmt.Errorf("group: unknown parameter set %q", name)
	}
}

// byID resolves a wire group ID to its backend.
func byID(id GroupID) (backend, error) {
	switch id {
	case IDModp2048:
		return modp2048Group, nil
	case IDTest512:
		return test512Group, nil
	case IDTest256:
		return test256Group, nil
	case IDP256:
		return p256Group, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownGroup, id)
	}
}

// MODP2048 returns the production 2048-bit Z_p* group.
func MODP2048() Group { return modp2048Group }

// Test512 returns the 512-bit Z_p* testing group.
func Test512() Group { return test512Group }

// Test256 returns the 256-bit Z_p* testing group.
func Test256() Group { return test256Group }

// P256 returns the NIST P-256 elliptic-curve group.
func P256() Group { return p256Group }

// TestDefaultName resolves the group name protocol tests and simulated
// deployments default to: the SINTRA_GROUP environment variable when
// set (the CI backend matrix sets it), otherwise the fast test-sized
// Z_p* group. "modp2048" selects the Z_p* backend at test-sized
// parameters — the matrix exercises backend code, not 2048-bit latency.
func TestDefaultName() string {
	switch os.Getenv("SINTRA_GROUP") {
	case NameP256:
		return NameP256
	case NameTest512:
		return NameTest512
	default:
		return NameTest256
	}
}

// TestDefault returns the group named by TestDefaultName.
func TestDefault() Group {
	g, err := ByName(TestDefaultName())
	if err != nil {
		panic(err) // unreachable: TestDefaultName returns known names
	}
	return g
}

// hashWide expands SHA-256 over (domain, data...) to want bytes with a
// counter construction; inputs are length-framed so concatenation is
// unambiguous. Both backends' hash-to-scalar / hash-to-point build on it.
func hashWide(domain string, data [][]byte, want int) *big.Int {
	out := make([]byte, 0, want+sha256.Size)
	var ctr uint32
	for len(out) < want {
		h := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write([]byte(domain))
		for _, d := range data {
			var lb [8]byte
			binary.BigEndian.PutUint64(lb[:], uint64(len(d)))
			h.Write(lb[:])
			h.Write(d)
		}
		out = h.Sum(out)
		ctr++
	}
	return new(big.Int).SetBytes(out[:want])
}
