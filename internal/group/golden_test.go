package group

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"
)

// goldenVectors pins the SHA-256 of every byte string the Z_p* backend
// hands to the outside world, on fixed inputs: element and scalar
// encodings, hash outputs and gob forms. Dealt key files, coin values
// and every Fiat-Shamir transcript depend on these bytes, so an
// arithmetic refactor must leave each one unchanged.
var goldenVectors = map[string]map[string]string{
	NameTest256: {
		"BaseExp":      "01fdface6470fea8f1148773e64b311f946c648dbc0311fa997564ee98814a78",
		"Exp":          "a91585634b9467f0e5a185695894d7fe697fd1723eb2768cfce63a629c8bb4be",
		"MulExp":       "375f825c172cd1a21a324c8c4898304b20fe4f8da43b75a043d7577f8206b9c7",
		"MultiExp":     "f97ed4a6a2a15758e6670a5e36fb197b1c74ba08a0bf8c1e9a9b480b3afae943",
		"HashToPoint":  "b8caff69d8b1010abefebff4a9ac8b320c6a760caa4e76e3d25b90702548512c",
		"HashToScalar": "b26d87db951f31f0bcb248d7309e8b3caeab36bb228e982e02c7b748f134da57",
		"EncodeScalar": "416f9eec3d39567870cc7e06de71c4a018ea049288ef2d0f4c257d64dad3b8f2",
		"gob-Point":    "ba35cd315eacee30de242e115b2f2bba3c68bdd09b3276d002c42854caffbf9d",
		"gob-Scalar":   "f95b26f752534b1a27f561a73aee80c1074b9d7062eb1a24b86cc975e4b29c26",
	},
	NameMODP2048: {
		"BaseExp":      "7c421e40cd2a3368b620a5c13cee095e65423861ee661c3679c2108c1e5818a1",
		"Exp":          "540b0d2234982dd0b30a176874400fed4881750dab71a58462f69f2a856b9086",
		"MulExp":       "9ce30752eccb48ff75a97848c3b8ea9674570c91f5c642115da2a597b30ca2bc",
		"MultiExp":     "0fb52ee0063e810b0396bf39f717b47d0a4ffbe546c21bf364d41279b9ab6876",
		"HashToPoint":  "ca9850cd589e5c77c3a2b1334b0f5e53af42e7fe7d7acd6f13835aef38651e8b",
		"HashToScalar": "53c57a8149905213b230642bcace50d399af7e72eea3ca74bc245b824071ca8d",
		"EncodeScalar": "65ef3640d106c669a436c7f503dc73f0d4d64a5828475c5108da93d8ca92445f",
		"gob-Point":    "4e4ac12d22eeb8e6f12ef8639d83a8123dad2807c9a4ec9224ebcb715db5e811",
		"gob-Scalar":   "4cd690fc8f2309284f9a9f28b550fdf2b08428414b6fe41655fbfe6e922aa991",
	},
}

// goldenOutputs computes the pinned byte strings of g from inputs that
// depend on nothing but the group's own hash functions.
func goldenOutputs(t *testing.T, g Group) map[string][]byte {
	t.Helper()
	s := func(tag string) *Scalar { return g.HashToScalar("golden-scalar", []byte(tag)) }
	h := func(tag string) *Point { return g.HashToPoint("golden-base", []byte(tag)) }
	pre := h("precomputed")
	g.Precompute(pre)
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"BaseExp": g.EncodeElement(g.BaseExp(s("x"))),
		"Exp":     g.EncodeElement(g.Exp(h("a"), s("y"))),
		"MulExp":  g.EncodeElement(g.MulExp(g.Generator(), s("x"), h("a"), s("y"))),
		"MultiExp": g.EncodeElement(g.MultiExp([]Term{
			{Base: g.Generator(), Exp: s("t0")},
			{Base: pre, Exp: s("t1")},
			{Base: h("a"), Exp: s("t2")},
			{Base: h("b"), Exp: g.NewScalar(5)},
		})),
		"HashToPoint":  g.EncodeElement(h("hashed")),
		"HashToScalar": g.EncodeScalar(g.HashToScalar("golden", []byte("hashed"))),
		"EncodeScalar": g.EncodeScalar(g.NewScalar(-12345)),
		"gob-Point":    gobOf(g.BaseExp(s("gob"))),
		"gob-Scalar":   gobOf(s("gob")),
	}
}

func TestGoldenVectors(t *testing.T) {
	for name, want := range goldenVectors {
		g, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for op, out := range goldenOutputs(t, g) {
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want[op] {
				t.Errorf("%s %s: sha256 %s, want %s", name, op, got, want[op])
			}
		}
	}
}
