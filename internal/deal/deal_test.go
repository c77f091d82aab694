package deal_test

import (
	"crypto/rand"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/deal"
	"sintra/internal/group"
	"sintra/internal/identity"
	"sintra/internal/threnc"
	"sintra/internal/thresig"
)

func dealThreshold(t *testing.T, n, tt int, force bool) (*deal.Public, []*deal.PartySecret) {
	t.Helper()
	st, err := adversary.NewThreshold(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	pub, secrets, err := deal.New(deal.Options{
		Group:     group.Test256(),
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
		ForceCert: force,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pub, secrets
}

// TestDealThresholdQuorumCertAnswerRSA: a threshold dealing makes the
// quorum key a certificate under the quorum rule and the answer key Shoup
// threshold RSA with K = t+1, and both sign end to end.
func TestDealThresholdQuorumCertAnswerRSA(t *testing.T) {
	pub, secrets := dealThreshold(t, 4, 1, false)
	if pub.QuorumCert == nil || pub.QuorumCert.OpenRule != thresig.RuleQuorum {
		t.Fatalf("quorum key %+v, want a RuleQuorum certificate", pub.QuorumCert)
	}
	if pub.AnswerRSA == nil || pub.AnswerCert != nil {
		t.Fatal("threshold deployment should answer with Shoup RSA")
	}
	if pub.AnswerRSA.K != 2 {
		t.Fatalf("answer K=%d, want t+1 = 2", pub.AnswerRSA.K)
	}
	msg := []byte("statement")
	for _, c := range []struct {
		scheme  thresig.Scheme
		key     func(*deal.PartySecret) *thresig.SecretKey
		signers int
	}{
		{pub.QuorumSig(), func(s *deal.PartySecret) *thresig.SecretKey { return s.SigQuorum }, 3},
		{pub.AnswerSig(), func(s *deal.PartySecret) *thresig.SecretKey { return s.SigAnswer }, 2},
	} {
		var shares []thresig.Share
		for i := 0; i < c.signers; i++ {
			sh, err := c.scheme.SignShare(c.key(secrets[i]), msg, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, sh)
		}
		if _, err := c.scheme.Combine(msg, shares[:c.signers-1]); err == nil {
			t.Fatalf("%s combined from %d shares", c.scheme.Tag(), c.signers-1)
		}
		sig, err := c.scheme.Combine(msg, shares)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.scheme.Verify(msg, sig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuorumCertMatchesRSAThreshold: under the quorum rule a certificate
// opens for exactly the signer sets that the quorum RSA key of the same
// structure opened for, K = n−t (n−tb−tc for hybrid structures), so
// replacing that key changes which statements certify nowhere.
func TestQuorumCertMatchesRSAThreshold(t *testing.T) {
	var structs []*adversary.Structure
	for _, nt := range [][2]int{{4, 1}, {7, 2}, {10, 3}, {16, 5}} {
		structs = append(structs, adversary.MustThreshold(nt[0], nt[1]))
	}
	for _, h := range [][3]int{{6, 1, 1}, {8, 1, 2}, {9, 2, 1}, {7, 2, 0}} {
		st, err := adversary.NewHybridThreshold(h[0], h[1], h[2])
		if err != nil {
			t.Fatal(err)
		}
		structs = append(structs, st)
	}
	for _, st := range structs {
		k := st.NParties - st.Thresh
		if st.Hybrid {
			k = st.NParties - st.TB - st.TC
		}
		pub, _, err := deal.New(deal.Options{Group: group.Test256(), Structure: st, RSAPrimes: deal.TestPrimes256()})
		if err != nil {
			t.Fatal(err)
		}
		for v := adversary.Set(0); v <= adversary.FullSet(st.NParties); v++ {
			if got := pub.QuorumCert.Sufficient(v); got != (v.Count() >= k) {
				t.Fatalf("%s: Sufficient(%v) = %v, want %v (K = %d)", st, v, got, !got, k)
			}
		}
	}
}

// TestDealLargeThresholdAnswersWithCert: the answer key is threshold RSA
// up to K = t+1 = 5 (n = 13) and a certificate under the has-honest rule
// from K = 6 (n = 16) on, where a search of RSA shares without proofs
// could take hundreds of combines per message.
func TestDealLargeThresholdAnswersWithCert(t *testing.T) {
	if pub, _ := dealThreshold(t, 13, 4, false); pub.AnswerRSA == nil || pub.AnswerRSA.K != 5 {
		t.Fatal("n=13, t=4: the answer key should be threshold RSA with K = 5")
	}
	pub, _ := dealThreshold(t, 16, 5, false)
	if pub.AnswerRSA != nil || pub.AnswerCert == nil || pub.AnswerCert.OpenRule != thresig.RuleHasHonest {
		t.Fatalf("n=16, t=5: answer key %T, want a has-honest certificate", pub.AnswerSig())
	}
}

func TestDealForceCert(t *testing.T) {
	pub, _ := dealThreshold(t, 4, 1, true)
	if pub.QuorumCert == nil || pub.AnswerCert == nil {
		t.Fatal("ForceCert ignored")
	}
	if pub.AnswerRSA != nil {
		t.Fatal("RSA dealt despite ForceCert")
	}
}

func TestDealGeneralUsesCert(t *testing.T) {
	st := adversary.Example1()
	pub, secrets, err := deal.New(deal.Options{
		Group:     group.Test256(),
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pub.QuorumCert == nil {
		t.Fatal("general structure must use certificate signatures")
	}
	if len(secrets) != 9 {
		t.Fatalf("%d secrets", len(secrets))
	}
}

func TestDealRejectsNonQ3(t *testing.T) {
	st, err := adversary.NewThreshold(3, 1) // 3 <= 3t: not Q3
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := deal.New(deal.Options{
		Group:     group.Test256(),
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
	}); err == nil {
		t.Fatal("non-Q3 structure dealt")
	}
}

func TestDealRejectsMissingInputs(t *testing.T) {
	if _, _, err := deal.New(deal.Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestLinkKeysSymmetricAndDistinct(t *testing.T) {
	_, secrets := dealThreshold(t, 4, 1, false)
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			ki := secrets[i].LinkKeys[j]
			kj := secrets[j].LinkKeys[i]
			if len(ki) != 32 || string(ki) != string(kj) {
				t.Fatalf("link key (%d,%d) not symmetric", i, j)
			}
			if i < j {
				if seen[string(ki)] {
					t.Fatal("link key reused across pairs")
				}
				seen[string(ki)] = true
			}
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	pub, secrets := dealThreshold(t, 4, 1, false)
	dir := t.TempDir()
	if err := deal.SaveDir(dir, pub, secrets); err != nil {
		t.Fatal(err)
	}
	pub2, err := deal.LoadPublic(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded public material must be fully functional: verify a
	// signature produced with the original secrets.
	msg := []byte("cross-check")
	var shares []thresig.Share
	for i := 0; i < 2; i++ {
		sh, err := pub2.AnswerSig().SignShare(secrets[i].SigAnswer, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := pub2.AnswerSig().Combine(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.AnswerSig().Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	// Coin params survive the round trip.
	if err := pub2.Coin.Init(); err != nil {
		t.Fatal(err)
	}
	sec, err := deal.LoadParty(dir, 3)
	if err != nil || sec.Party != 3 {
		t.Fatalf("LoadParty: %v", err)
	}
	if _, err := deal.LoadParty(dir, 8); err == nil {
		t.Fatal("missing party loaded")
	}
	if _, err := deal.LoadPublic(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
}

func TestInitDetectsIncompleteness(t *testing.T) {
	pub, _ := dealThreshold(t, 4, 1, false)
	bad := *pub
	bad.Coin = nil
	if err := bad.Init(); err == nil {
		t.Fatal("missing coin accepted")
	}
	bad = *pub
	bad.QuorumCert = nil
	if err := bad.Init(); err == nil || !strings.Contains(err.Error(), "deal again") {
		t.Fatalf("missing quorum certificate: %v, want a call to deal again", err)
	}
	bad = *pub
	bad.AnswerRSA = nil
	if err := bad.Init(); err == nil {
		t.Fatal("missing answer scheme accepted")
	}
}

// TestLoadPublicRefusesDealingWithoutQuorumCert: a public.gob written
// before the quorum key became a certificate holds an RSA quorum key under
// a field this version does not have, and no QuorumCert. Gob skips the
// unknown field, so the file decodes, and Init refuses it with a call to
// deal again.
func TestLoadPublicRefusesDealingWithoutQuorumCert(t *testing.T) {
	pub, _ := dealThreshold(t, 4, 1, false)
	old := struct {
		GroupName            string
		Structure            *adversary.Structure
		Coin                 *coin.Params
		Enc                  *threnc.Params
		Identity             *identity.Registry
		OldQuorum, AnswerRSA *thresig.RSAScheme
	}{pub.GroupName, pub.Structure, pub.Coin, pub.Enc, pub.Identity, pub.AnswerRSA, pub.AnswerRSA}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "public.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(old); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := deal.LoadPublic(dir); err == nil || !strings.Contains(err.Error(), "deal again") {
		t.Fatalf("LoadPublic of a dealing without a quorum certificate: %v, want a call to deal again", err)
	}
}
