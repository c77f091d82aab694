package thresig

import "math/big"

// Pre-generated safe primes for tests and examples. Safe-prime generation
// takes seconds even at 256 bits, which would dominate test time; these
// constants let tests deal fresh threshold RSA keys instantly. They MUST
// NOT be used in real deployments — anyone can read them here.
const (
	testSafePrimeA256 = "f66b4943261a5028929e92bbd6ccbebcdcffc0f2487d31f36725663ed264641f"
	testSafePrimeB256 = "c6f1953e75bdf815f9a756802717236bd3c08178ef8a18ca8b8220a250c75ef7"
)

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("thresig: bad embedded prime")
	}
	return v
}

// TestSafePrimes256 returns two embedded 256-bit safe primes (a 512-bit
// RSA modulus) for fast tests.
func TestSafePrimes256() (*big.Int, *big.Int) {
	return mustHex(testSafePrimeA256), mustHex(testSafePrimeB256)
}
