// Package deal implements the trusted dealer of the paper's model (§2):
// a one-time setup authority that generates and distributes all secret
// values — coin-tossing shares, threshold-signature shares, threshold-
// decryption shares, identity keys, and pairwise link keys — after which
// the system processes an unlimited number of requests with no further
// trusted involvement.
package deal

import (
	"crypto/rand"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"

	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/edverify"
	"sintra/internal/group"
	"sintra/internal/identity"
	"sintra/internal/threnc"
	"sintra/internal/thresig"
)

// Signature-scheme role tags.
const (
	tagQuorum = "cbc-quorum"
	tagAnswer = "svc-answer"
)

// linkKeySize is the byte length of pairwise HMAC link keys.
const linkKeySize = 32

// Public is the dealer's public output, identical on every party and
// available to clients.
type Public struct {
	// GroupName selects the discrete-log group.
	GroupName string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// Coin is the threshold coin-tossing public key.
	Coin *coin.Params
	// Enc is the TDH2 threshold encryption public key.
	Enc *threnc.Params
	// Identity registers every party's individual signature key.
	Identity *identity.Registry

	// QuorumCert is the quorum key: a certificate of n−t (in general, a
	// quorum's) Ed25519 signatures.
	QuorumCert *thresig.CertScheme
	// Exactly one of the answer pair is non-nil: Shoup threshold RSA when
	// the honest rule is a count (threshold and hybrid structures) of at
	// most maxAnswerRSAK, a certificate otherwise or under ForceCert.
	AnswerRSA  *thresig.RSAScheme
	AnswerCert *thresig.CertScheme
}

// PartySecret is one party's private key material.
type PartySecret struct {
	// Party is the owner's index.
	Party int
	// Coin is the party's coin key.
	Coin *coin.SecretKey
	// Enc is the party's decryption key.
	Enc *threnc.SecretKey
	// Identity is the party's individual signing key.
	Identity *identity.Key
	// SigQuorum and SigAnswer are the party's threshold-signature keys.
	SigQuorum *thresig.SecretKey
	SigAnswer *thresig.SecretKey
	// LinkKeys[j] is the symmetric key authenticating the link to party j
	// (LinkKeys[self] is unused).
	LinkKeys [][]byte
}

// Options configures a dealing.
type Options struct {
	// Group selects the discrete-log group (required).
	Group group.Group
	// Structure is the adversary structure (required).
	Structure *adversary.Structure
	// RSAPrimes supplies the safe primes for the answer key only; nil
	// generates two fresh 512-bit safe primes, a 1024-bit modulus (slow).
	// Ignored when ForceCert is set or the structure is generalized.
	RSAPrimes func() (p, q *big.Int, err error)
	// ForceCert makes the answer key a certificate too, even for
	// threshold structures (useful to compare the two schemes).
	ForceCert bool
	// Rand is the randomness source; nil means crypto/rand.
	Rand io.Reader
}

// maxAnswerRSAK is the largest K for which the answer key is threshold
// RSA: its shares carry no proof, so a failed combine searches K-subsets
// of 2K−1 shares, C(9, 5) = 126 at K = 5 but 462 at K = 6.
const maxAnswerRSAK = 5

// New runs the dealer and returns the public output plus one secret per
// party.
func New(opts Options) (*Public, []*PartySecret, error) {
	if opts.Group == nil || opts.Structure == nil {
		return nil, nil, errors.New("deal: group and structure are required")
	}
	if err := opts.Structure.Validate(); err != nil {
		return nil, nil, fmt.Errorf("deal: %w", err)
	}
	if !opts.Structure.Q3() {
		return nil, nil, errors.New("deal: adversary structure violates the Q3 condition")
	}
	rnd := opts.Rand
	if rnd == nil {
		rnd = rand.Reader
	}
	st := opts.Structure
	n := st.N()

	pub := &Public{GroupName: opts.Group.Name(), Structure: st}
	secrets := make([]*PartySecret, n)
	for i := range secrets {
		secrets[i] = &PartySecret{Party: i, LinkKeys: make([][]byte, n)}
	}

	coinPub, coinKeys, err := coin.Deal(opts.Group, st, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("deal: coin: %w", err)
	}
	pub.Coin = coinPub
	for i, k := range coinKeys {
		secrets[i].Coin = k
	}

	encPub, encKeys, err := threnc.Deal(opts.Group, st, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("deal: threnc: %w", err)
	}
	pub.Enc = encPub
	for i, k := range encKeys {
		secrets[i].Enc = k
	}

	idReg, idKeys, err := identity.Generate(n, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("deal: %w", err)
	}
	pub.Identity = idReg
	for i, k := range idKeys {
		secrets[i].Identity = k
	}

	// The quorum key, which only replicas check, is a certificate of
	// individual signatures; the answer key, which clients check, is
	// Shoup threshold RSA where the honest rule is a small enough count.
	var qKeys, aKeys []*thresig.SecretKey
	if pub.QuorumCert, qKeys, err = thresig.NewCertScheme(tagQuorum, st, thresig.RuleQuorum, rnd); err != nil {
		return nil, nil, fmt.Errorf("deal: %w", err)
	}
	if k, countBased := st.HonestCount(); countBased && k <= maxAnswerRSAK && !opts.ForceCert {
		var p, q *big.Int
		if opts.RSAPrimes != nil {
			p, q, err = opts.RSAPrimes()
		} else if p, err = thresig.GenerateSafePrime(512, rnd); err == nil {
			q, err = thresig.GenerateSafePrime(512, rnd)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("deal: rsa primes: %w", err)
		}
		if pub.AnswerRSA, aKeys, err = thresig.NewRSAScheme(tagAnswer, p, q, n, k, rnd); err != nil {
			return nil, nil, fmt.Errorf("deal: %w", err)
		}
	} else if pub.AnswerCert, aKeys, err = thresig.NewCertScheme(tagAnswer, st, thresig.RuleHasHonest, rnd); err != nil {
		return nil, nil, fmt.Errorf("deal: %w", err)
	}
	for i := range secrets {
		secrets[i].SigQuorum = qKeys[i]
		secrets[i].SigAnswer = aKeys[i]
	}

	// Pairwise symmetric link keys for transport authentication.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			key := make([]byte, linkKeySize)
			if _, err := io.ReadFull(rnd, key); err != nil {
				return nil, nil, fmt.Errorf("deal: link keys: %w", err)
			}
			secrets[i].LinkKeys[j] = key
			secrets[j].LinkKeys[i] = key
		}
	}

	return pub, secrets, nil
}

// QuorumSig returns the quorum-rule threshold signature scheme, or nil if
// the material is incomplete (avoid the typed-nil interface trap).
func (p *Public) QuorumSig() thresig.Scheme {
	if p.QuorumCert != nil {
		return p.QuorumCert
	}
	return nil
}

// AnswerSig returns the service-answer threshold signature scheme, or nil.
func (p *Public) AnswerSig() thresig.Scheme {
	if p.AnswerRSA != nil {
		return p.AnswerRSA
	}
	if p.AnswerCert != nil {
		return p.AnswerCert
	}
	return nil
}

// Init rebuilds runtime caches after deserialization, registers the
// fixed-base tables of the coin and TDH2 keys, as their Deal does, and
// checks that every Ed25519 key list holds one key per party that decodes.
func (p *Public) Init() error {
	if p.Structure == nil || p.Coin == nil || p.Enc == nil || p.Identity == nil {
		return errors.New("deal: incomplete public material")
	}
	if err := p.Coin.Init(); err != nil {
		return fmt.Errorf("deal: %w", err)
	}
	if err := p.Enc.Init(); err != nil {
		return fmt.Errorf("deal: %w", err)
	}
	if p.QuorumSig() == nil || p.AnswerSig() == nil {
		// A dealing from before the quorum certificate has a quorum RSA key.
		return errors.New("deal: missing signature schemes (a dealing older than the quorum certificate?): deal again")
	}
	// Each Ed25519 key list holds one decodable key per party; the check
	// tables are built on the first check under each key, not here.
	n := p.Structure.N()
	if err := checkKeys("identity", p.Identity.PubKeys, n); err != nil {
		return err
	}
	if err := checkKeys("quorum certificate", p.QuorumCert.PubKeys, n); err != nil {
		return err
	}
	if p.AnswerCert != nil {
		return checkKeys("answer certificate", p.AnswerCert.PubKeys, n)
	}
	return nil
}

func checkKeys(name string, keys [][]byte, n int) error {
	if err := edverify.CheckKeys(keys, n); err != nil {
		return fmt.Errorf("deal: %s keys: %w", name, err)
	}
	return nil
}

// TestPrimes256 adapts the embedded 256-bit safe primes to Options.RSAPrimes
// for fast tests and examples.
func TestPrimes256() func() (*big.Int, *big.Int, error) { return thresig.TestSafePrimes256 }

// File names inside a configuration directory.
const (
	publicFile = "public.gob"
)

func partyFile(i int) string { return fmt.Sprintf("party-%d.gob", i) }

// SaveDir writes the dealing into a configuration directory: public.gob
// plus party-<i>.gob for each party (secret files are mode 0600).
func SaveDir(dir string, pub *Public, secrets []*PartySecret) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("deal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, publicFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("deal: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(pub); err != nil {
		f.Close()
		return fmt.Errorf("deal: encode public: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("deal: %w", err)
	}
	for i, sec := range secrets {
		f, err := os.OpenFile(filepath.Join(dir, partyFile(i)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
		if err != nil {
			return fmt.Errorf("deal: %w", err)
		}
		if err := gob.NewEncoder(f).Encode(sec); err != nil {
			f.Close()
			return fmt.Errorf("deal: encode party %d: %w", i, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("deal: %w", err)
		}
	}
	return nil
}

// LoadPublic reads and initializes the public material of a configuration
// directory.
func LoadPublic(dir string) (*Public, error) {
	f, err := os.Open(filepath.Join(dir, publicFile))
	if err != nil {
		return nil, fmt.Errorf("deal: %w", err)
	}
	defer f.Close()
	var pub Public
	if err := gob.NewDecoder(f).Decode(&pub); err != nil {
		return nil, fmt.Errorf("deal: decode public: %w", err)
	}
	if err := pub.Init(); err != nil {
		return nil, err
	}
	return &pub, nil
}

// LoadParty reads one party's secret material.
func LoadParty(dir string, party int) (*PartySecret, error) {
	f, err := os.Open(filepath.Join(dir, partyFile(party)))
	if err != nil {
		return nil, fmt.Errorf("deal: %w", err)
	}
	defer f.Close()
	var sec PartySecret
	if err := gob.NewDecoder(f).Decode(&sec); err != nil {
		return nil, fmt.Errorf("deal: decode party %d: %w", party, err)
	}
	if sec.Party != party {
		return nil, fmt.Errorf("deal: party file %d holds keys of party %d", party, sec.Party)
	}
	return &sec, nil
}
