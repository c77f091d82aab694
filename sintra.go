// Package sintra is a from-scratch Go implementation of the architecture
// of Christian Cachin's "Distributing Trust on the Internet" (DSN 2001) —
// secure and fault-tolerant service replication in a completely
// asynchronous network where a malicious adversary may corrupt servers
// and control all message scheduling.
//
// The library provides:
//
//   - the full asynchronous broadcast stack of the paper's §3: reliable
//     broadcast, consistent broadcast with transferable certificates,
//     randomized binary Byzantine agreement driven by a threshold
//     coin, multi-valued agreement with external validity, atomic
//     broadcast, and secure causal atomic broadcast;
//
//   - the threshold cryptography of §2.1: the Diffie-Hellman threshold
//     coin (Cachin–Kursawe–Shoup), Shoup threshold RSA signatures, the
//     TDH2 chosen-ciphertext-secure threshold cryptosystem, and linear
//     secret sharing for arbitrary monotone access structures;
//
//   - the generalized adversary structures of §4, including the paper's
//     two worked examples (nine servers in four classes; a 4×4 grid of
//     sites × operating systems tolerating seven simultaneous
//     corruptions where any threshold scheme tolerates five);
//
//   - the replicated trusted services of §5: a certification authority
//     with a secure directory, and a notary whose submissions stay
//     confidential until ordered;
//
//   - a trusted dealer, a TCP transport for multi-process deployments,
//     and an in-process simulated deployment whose network scheduler is
//     adversary-controlled, for tests and experiments.
//
// Start with NewDeployment for an in-process cluster, or use the
// sintra-dealer / sintra-node / sintra-client commands for a multi-process
// deployment. DESIGN.md maps every paper claim to the module implementing
// it; EXPERIMENTS.md records the reproduction results.
package sintra

import (
	"io"
	"math/big"

	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/deal"
	"sintra/internal/group"
	"sintra/internal/service"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Re-exported core types. Aliases keep the full method sets available
// under the public package path.
type (
	// Structure is an adversary structure: the family of server subsets
	// the adversary may corrupt, plus the compatible secret-sharing
	// access formula.
	Structure = adversary.Structure
	// Formula is a monotone threshold-gate formula over party indices.
	Formula = adversary.Formula
	// PartySet is a subset of the servers.
	PartySet = adversary.Set
	// Classification assigns an attribute value to every server (§4.3).
	Classification = adversary.Classification

	// Quorums is the observer-indexed quorum backend consulted by every
	// protocol layer; SymmetricTrust wraps a shared Structure (the
	// paper's model), AsymmetricTrust gives each party its own
	// fail-prone assumptions.
	Quorums = trust.Quorums
	// SymmetricTrust is the shared-structure quorum backend.
	SymmetricTrust = trust.Symmetric
	// AsymmetricTrust is the per-party fail-prone quorum backend.
	AsymmetricTrust = trust.Asymmetric
	// FailProne is one party's fail-prone assumption (threshold or
	// explicit maximal sets).
	FailProne = trust.FailProne
	// TrustSpec is the JSON-codable trust configuration (see
	// ParseTrustSpec and the -trust-config flag of sintra-node).
	TrustSpec = trust.Spec

	// Public is the dealer's public key material.
	Public = deal.Public
	// PartySecret is one server's private key material.
	PartySecret = deal.PartySecret

	// Node is one replica of a distributed trusted service.
	Node = core.Node
	// NodeConfig configures a replica.
	NodeConfig = core.NodeConfig
	// Tuning is every performance and protocol knob of a replica,
	// declared and documented once (0 = default, negative = off,
	// positive = value); NodeConfig embeds it and WithTuning carries it.
	Tuning = core.Tuning
	// StateMachine is a deterministic replicated application.
	StateMachine = core.StateMachine
	// Snapshotter is the optional state-transfer extension of
	// StateMachine: services that implement it participate in
	// checkpoint/GC and replica catch-up.
	Snapshotter = core.Snapshotter
	// Client invokes a replicated trusted service.
	Client = core.Client
	// ClientOption configures a Client (see WithClientObserver).
	ClientOption = core.Option
	// Answer is a completed invocation with its threshold signature.
	Answer = core.Answer
	// Mode selects atomic or secure-causal request dissemination.
	Mode = core.Mode
	// Transport moves protocol messages for one endpoint.
	Transport = wire.Transport

	// Directory is the replicated CA + secure directory application.
	Directory = service.Directory
	// Notary is the replicated notary application.
	Notary = service.Notary
	// Auth is the replicated authentication application.
	Auth = service.Auth
	// Exchange is the replicated fair-exchange application.
	Exchange = service.Exchange
)

// Service modes.
const (
	// ModeAtomic orders requests with plain atomic broadcast.
	ModeAtomic = core.ModeAtomic
	// ModeSecureCausal additionally keeps requests confidential until
	// their position in the order is fixed.
	ModeSecureCausal = core.ModeSecureCausal
)

// NewThresholdStructure builds the classic structure tolerating any t of n
// corruptions; it satisfies Q³ iff n > 3t.
func NewThresholdStructure(n, t int) (*Structure, error) {
	return adversary.NewThreshold(n, t)
}

// NewGeneralStructure builds a generalized structure from the maximal
// corruptible sets and a compatible monotone access formula (see the
// adversary-structure discussion in DESIGN.md).
func NewGeneralStructure(n int, maxSets []PartySet, access *Formula) (*Structure, error) {
	return adversary.NewGeneral(n, maxSets, access)
}

// NewHybridThreshold builds the §6 hybrid failure structure: tolerate tb
// Byzantine corruptions PLUS tc crashes among n servers (feasible iff
// n > 3·tb + 2·tc). Crashes are cheaper than corruptions, so a hybrid
// deployment survives fault mixes no plain Byzantine threshold on the
// same n can.
func NewHybridThreshold(n, tb, tc int) (*Structure, error) {
	return adversary.NewHybridThreshold(n, tb, tc)
}

// NewClassifiedThreshold builds the paper's §4.3 classified structure for
// any attribute assignment: tolerate t arbitrary corruptions or any whole
// class; secrets need t+1 servers spanning minClasses classes.
func NewClassifiedThreshold(c *Classification, t, minClasses int) (*Structure, error) {
	return adversary.ClassifiedThreshold(c, t, minClasses)
}

// NewClassification assigns an attribute value to every server.
func NewClassification(values []string) *Classification {
	return adversary.NewClassification(values)
}

// NewSymmetricTrust wraps a shared adversary structure in the quorum
// backend interface — the paper's trust model and the default everywhere
// a Trust knob is left nil.
func NewSymmetricTrust(st *Structure) *SymmetricTrust { return trust.NewSymmetric(st) }

// NewAsymmetricTrust builds a per-party quorum backend from each party's
// fail-prone assumption, validating the B³ consistency-and-availability
// condition at construction. Use ThresholdFailProne and GeneralFailProne
// for the per-party systems.
func NewAsymmetricTrust(n int, systems []FailProne) (*AsymmetricTrust, error) {
	return trust.NewAsymmetric(n, systems)
}

// ThresholdFailProne is the fail-prone system "any t parties may fail".
func ThresholdFailProne(t int) FailProne { return trust.Threshold(t) }

// GeneralFailProne is a fail-prone system given by its maximal sets.
func GeneralFailProne(maxSets ...PartySet) FailProne { return trust.General(maxSets...) }

// ParseTrustSpec decodes a JSON trust configuration; build the backend
// with its Build method against the deployment's structure.
func ParseTrustSpec(data []byte) (*TrustSpec, error) { return trust.ParseSpec(data) }

// Example1Structure returns the paper's §4.3 Example 1: nine servers in
// four classes, tolerating two arbitrary corruptions or any whole class.
func Example1Structure() *Structure { return adversary.Example1() }

// Example2Structure returns the paper's §4.3 Example 2: sixteen servers
// classified by location × operating system, tolerating the simultaneous
// loss of one full location and one full operating system (7 servers).
func Example2Structure() *Structure { return adversary.Example2() }

// Example2Party maps an Example 2 (location, operating-system) coordinate
// to the party index.
func Example2Party(location, system int) int { return adversary.Example2Party(location, system) }

// Formula constructors, re-exported for building custom structures.
var (
	// Leaf is satisfied iff the party is present.
	Leaf = adversary.Leaf
	// Threshold is the gate Θ_k over sub-formulas.
	Threshold = adversary.Threshold
	// And and Or are the usual special cases.
	And = adversary.And
	Or  = adversary.Or
	// ThresholdOf is Θ_k over explicit party leaves.
	ThresholdOf = adversary.ThresholdOf
	// AnySubsetOf is the characteristic function χ of a party set.
	AnySubsetOf = adversary.AnySubsetOf
	// SetOf builds a PartySet from explicit members.
	SetOf = adversary.SetOf
)

// DealOptions configures the trusted dealer.
type DealOptions struct {
	// Structure is the deployment's adversary structure (required).
	Structure *Structure
	// GroupName selects the discrete-log group backend: "modp2048"
	// (default) or "p256" for real deployments, "test256"/"test512" for
	// fast experiments. P-256 shares are an order of magnitude cheaper to
	// verify and a fraction of the wire size; modp2048 keeps the original
	// Z_p* wire format. See DESIGN.md for the comparison.
	GroupName string
	// RSAPrimes optionally supplies safe primes for the answer key only;
	// nil generates two fresh 512-bit safe primes, a 1024-bit modulus
	// (slow). Use TestRSAPrimes for experiments.
	RSAPrimes func() (p, q *big.Int, err error)
	// ForceCert makes the answer key a certificate too, even for
	// threshold structures.
	ForceCert bool
	// Rand overrides the randomness source (tests only).
	Rand io.Reader
}

// TestRSAPrimes returns embedded 256-bit safe primes for fast experiments;
// never use them in real deployments.
func TestRSAPrimes() (p, q *big.Int, err error) { return thresig.TestSafePrimes256() }

// Deal runs the trusted dealer: it generates every secret of the
// deployment (coin shares, signature shares, decryption shares, identity
// and link keys) once and for all (paper §2). The public output goes to
// every server and client; each PartySecret goes to exactly one server.
func Deal(opts DealOptions) (*Public, []*PartySecret, error) {
	name := opts.GroupName
	if name == "" {
		name = group.NameMODP2048
	}
	g, err := group.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	return deal.New(deal.Options{
		Group:     g,
		Structure: opts.Structure,
		RSAPrimes: opts.RSAPrimes,
		ForceCert: opts.ForceCert,
		Rand:      opts.Rand,
	})
}

// SaveDeployment writes a dealing into a configuration directory
// (public.gob plus one party-<i>.gob per server).
func SaveDeployment(dir string, pub *Public, secrets []*PartySecret) error {
	return deal.SaveDir(dir, pub, secrets)
}

// LoadPublic reads the public material of a configuration directory.
func LoadPublic(dir string) (*Public, error) { return deal.LoadPublic(dir) }

// LoadPartySecret reads one server's secret material.
func LoadPartySecret(dir string, party int) (*PartySecret, error) {
	return deal.LoadParty(dir, party)
}

// NewNode builds a replica; see core.NodeConfig for the fields.
func NewNode(cfg NodeConfig) (*Node, error) { return core.NewNode(cfg) }

// VerifyAnswer checks a service's threshold-signed answer offline.
var VerifyAnswer = core.VerifyAnswer

// NewDirectory creates the CA + directory application (§5.1).
func NewDirectory() *Directory { return service.NewDirectory() }

// NewNotary creates the notary application (§5.2).
func NewNotary() *Notary { return service.NewNotary() }

// NewAuth creates the authentication application (§5): threshold-signed
// verdicts over threshold-encrypted credentials. Run it with
// ModeSecureCausal so secrets stay sealed until ordered.
func NewAuth() *Auth { return service.NewAuth() }

// NewExchange creates the fair-exchange application (§5): a replicated
// escrow that releases both parties' items in one atomic step. Run it
// with ModeSecureCausal so deposited items stay sealed until ordered.
func NewExchange() *Exchange { return service.NewExchange() }

// NewWeightedThreshold builds the §4.3 weighted threshold structure:
// party i has weight weights[i] and the adversary may corrupt any set of
// total weight at most maxWeight.
func NewWeightedThreshold(weights []int, maxWeight int) (*Structure, error) {
	return adversary.NewWeightedThreshold(weights, maxWeight)
}

// NewClientOverTransport attaches a client to an arbitrary transport
// endpoint (the TCP transport of a multi-process deployment, or a
// simulated endpoint).
func NewClientOverTransport(pub *Public, tr Transport, serviceName string, mode Mode, opts ...ClientOption) *Client {
	return core.NewClient(pub, tr, serviceName, mode, opts...)
}

// WithClientObserver reports a client's metrics — request counts,
// end-to-end invoke latency, response-share verification failures —
// through reg.
var WithClientObserver = core.WithObserver

// Client errors, re-exported for errors.Is.
var (
	// ErrTimeout marks an invocation that hit its deadline; it wraps
	// context.DeadlineExceeded.
	ErrTimeout = core.ErrTimeout
	// ErrClosed marks an invocation on (or interrupted by) a closed
	// client.
	ErrClosed = core.ErrClosed
)
