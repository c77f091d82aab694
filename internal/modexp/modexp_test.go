package modexp

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

func TestTableMatchesGenericLadder(t *testing.T) {
	mods := []string{
		"f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", // 256-bit prime
		"e3a1b2c5d4f60789", // small odd modulus
		"f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a4", // even: math/big fallback
	}
	for _, mh := range mods {
		m, _ := new(big.Int).SetString(mh, 16)
		base, _ := rand.Int(rand.Reader, m)
		for _, bits := range []int{64, 256, 700, 1100} {
			tab := NewTable(base, m, bits)
			exps := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(255), big.NewInt(256),
				new(big.Int).Lsh(big.NewInt(1), uint(bits-1)),
				new(big.Int).Lsh(big.NewInt(1), uint(bits+8)), // over-wide: fallback
			}
			for i := 0; i < 12; i++ {
				e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
				exps = append(exps, e)
			}
			for _, e := range exps {
				want := new(big.Int).Exp(base, e, m)
				if got := tab.Exp(e); got.Cmp(want) != 0 {
					t.Fatalf("bits=%d: base^%v mod %s mismatch", bits, e, mh)
				}
			}
		}
	}
}

func TestMultiExpMatchesSequential(t *testing.T) {
	mods := []string{
		"f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", // 256-bit prime
		"f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a4", // even: math/big fallback
	}
	for _, mh := range mods {
		m, _ := new(big.Int).SetString(mh, 16)
		for _, k := range []int{0, 1, 2, 3, 7, 14} {
			for _, bits := range []int{1, 64, 128, 256, 700} {
				bases := make([]*big.Int, k)
				exps := make([]*big.Int, k)
				want := big.NewInt(1)
				for i := 0; i < k; i++ {
					bases[i], _ = rand.Int(rand.Reader, m)
					exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
					if i == 0 {
						exps[i].SetInt64(0) // exercise the zero-exponent skip
					}
					want.Mul(want, new(big.Int).Exp(bases[i], exps[i], m)).Mod(want, m)
				}
				if got := MultiExp(m, bases, exps); got.Cmp(want) != 0 {
					t.Fatalf("k=%d bits=%d: MultiExp mod %s mismatch", k, bits, mh)
				}
			}
		}
	}
}

func TestMultiExpMixedWidths(t *testing.T) {
	m, _ := new(big.Int).SetString("f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", 16)
	bases := make([]*big.Int, 4)
	exps := make([]*big.Int, 4)
	want := big.NewInt(1)
	for i, bits := range []int{3, 130, 257, 900} {
		bases[i], _ = rand.Int(rand.Reader, m)
		exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		want.Mul(want, new(big.Int).Exp(bases[i], exps[i], m)).Mod(want, m)
	}
	if got := MultiExp(m, bases, exps); got.Cmp(want) != 0 {
		t.Fatal("MultiExp mismatch across mixed exponent widths")
	}
}

func TestMultiExpNegativeFallback(t *testing.T) {
	m := big.NewInt(0x1_0001)
	bases := []*big.Int{big.NewInt(3), big.NewInt(5)}
	exps := []*big.Int{big.NewInt(-7), big.NewInt(11)}
	want := new(big.Int).Exp(bases[0], exps[0], m)
	want.Mul(want, new(big.Int).Exp(bases[1], exps[1], m)).Mod(want, m)
	if got := MultiExp(m, bases, exps); got.Cmp(want) != 0 {
		t.Fatal("MultiExp negative-exponent fallback mismatch")
	}
}

func TestMultiExpDoesNotMutateOperands(t *testing.T) {
	m, _ := new(big.Int).SetString("f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", 16)
	bases := make([]*big.Int, 3)
	exps := make([]*big.Int, 3)
	snaps := make([]*big.Int, 6)
	for i := range bases {
		bases[i], _ = rand.Int(rand.Reader, m)
		exps[i], _ = rand.Int(rand.Reader, m)
		snaps[i] = new(big.Int).Set(bases[i])
		snaps[3+i] = new(big.Int).Set(exps[i])
	}
	MultiExp(m, bases, exps)
	for i := range bases {
		if bases[i].Cmp(snaps[i]) != 0 || exps[i].Cmp(snaps[3+i]) != 0 {
			t.Fatal("MultiExp mutated an operand")
		}
	}
}

func TestTableDoesNotMutateOperands(t *testing.T) {
	m, _ := new(big.Int).SetString("f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", 16)
	base, _ := rand.Int(rand.Reader, m)
	e, _ := rand.Int(rand.Reader, m)
	baseSnap, eSnap, mSnap := new(big.Int).Set(base), new(big.Int).Set(e), new(big.Int).Set(m)
	tab := NewTable(base, m, 256)
	tab.Exp(e)
	if base.Cmp(baseSnap) != 0 || e.Cmp(eSnap) != 0 || m.Cmp(mSnap) != 0 {
		t.Fatal("Table.Exp mutated an operand")
	}
}

func TestTableConcurrentFirstUse(t *testing.T) {
	m, _ := new(big.Int).SetString("f9dd6f1cb24a78a4ee9083323dd56189b2c5b0d4cabe82493b01bb22301345a3", 16)
	base, _ := rand.Int(rand.Reader, m)
	e, _ := rand.Int(rand.Reader, m)
	want := new(big.Int).Exp(base, e, m)
	tab := NewTable(base, m, 256)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tab.Exp(e).Cmp(want) != 0 {
				panic("concurrent table exp diverged")
			}
		}()
	}
	wg.Wait()
}
