// Code generated by command: go run fe_amd64_asm.go -out ../fe_amd64.s -stubs ../fe_amd64.go -pkg field. DO NOT EDIT.

// Copied from Go 1.24's crypto/internal/fips140/edwards25519/field/fe_amd64.go
// (BSD license, see LICENSE) with the package renamed.

//go:build !purego

package edverify

// feMul sets out = a * b. It works like feMulGeneric.
//
//go:noescape
func feMul(out *Element, a *Element, b *Element)

// feSquare sets out = a * a. It works like feSquareGeneric.
//
//go:noescape
func feSquare(out *Element, a *Element)
