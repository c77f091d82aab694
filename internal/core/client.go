package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/deal"
	"sintra/internal/obs"
	"sintra/internal/scabc"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Client errors. InvokeContext wraps them so errors.Is works on both the
// client-level cause (ErrTimeout, ErrClosed) and the context cause
// (context.DeadlineExceeded, context.Canceled).
var (
	// ErrTimeout is returned when not enough consistent answers arrived
	// before the context deadline.
	ErrTimeout = errors.New("core: request timed out")
	// ErrClosed is returned for requests on (or interrupted by) a closed
	// client.
	ErrClosed = errors.New("core: client closed")
)

// Answer is a completed service invocation.
type Answer struct {
	// ReqID is the request's correlation ID; VerifyAnswer needs it.
	ReqID [16]byte
	// Result is the service's response body.
	Result []byte
	// Seq is the request's position in the service's total order.
	Seq int64
	// Signature is the service's threshold signature over the answer;
	// verify with VerifyAnswer. It proves the answer to third parties —
	// a certificate, a notary receipt.
	Signature []byte
}

// Client invokes a replicated trusted service: it sends each request to
// all servers and accepts an answer once a set of servers outside the
// adversary structure returned the same result, recovering the service's
// threshold signature from the response shares (paper §5).
type Client struct {
	pub      *deal.Public
	tr       wire.Transport
	service  string
	mode     Mode
	trust    trust.Quorums
	trustObs int

	mu      sync.Mutex
	pending map[[16]byte]*call
	closed  bool

	done chan struct{}
	once sync.Once

	// Observability (nil instruments when off).
	obsReg       *obs.Registry
	invokeLat    *obs.Histogram
	reqCount     *obs.Counter
	okCount      *obs.Counter
	badShares    *obs.Counter
	timeoutCount *obs.Counter
	malformed    *obs.Counter
}

type call struct {
	responses map[int]responseBody // by responding server, culprits dropped
	from      adversary.Set        // every server that responded
	answered  bool
	ch        chan Answer
}

// Option configures a Client.
type Option func(*Client)

// WithObserver reports the client's metrics through reg: request counts,
// end-to-end invoke latency, response-share verification failures, and
// malformed responses from corrupted servers.
func WithObserver(reg *obs.Registry) Option {
	return func(c *Client) {
		if reg == nil {
			return
		}
		c.obsReg = reg
		c.invokeLat = reg.Histogram("client.invoke.latency")
		c.reqCount = reg.Counter("client.requests")
		c.okCount = reg.Counter("client.answers")
		c.badShares = reg.Counter("client.responses.badshare")
		c.timeoutCount = reg.Counter("client.timeouts")
		c.malformed = reg.Counter("client.malformed")
	}
}

// WithTrust makes the client judge answers under the given quorum
// backend through the eyes of the given observer: an answer is accepted
// once the agreeing servers contain an honest party under that
// observer's fail-prone assumptions. The default is the symmetric
// backend over the deployment's adversary structure (the paper's trust
// model, observer irrelevant); a client of an asymmetric deployment
// passes the backend and the index of the party whose assumptions it
// adopts.
func WithTrust(q trust.Quorums, observer int) Option {
	return func(c *Client) {
		if q != nil {
			c.trust = q
			c.trustObs = observer
		}
	}
}

// NewClient wraps a client transport endpoint. Close releases it.
func NewClient(pub *deal.Public, tr wire.Transport, service string, mode Mode, opts ...Option) *Client {
	c := &Client{
		pub:     pub,
		tr:      tr,
		service: service,
		mode:    mode,
		pending: make(map[[16]byte]*call),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.trust == nil {
		c.trust = trust.NewSymmetric(pub.Structure)
	}
	go c.recvLoop()
	return c
}

// Close shuts the client down.
func (c *Client) Close() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		_ = c.tr.Close()
		<-c.done
	})
}

// InvokeContext executes one request against the service and waits for a
// trustworthy answer. It is the primary entry point: the context carries
// the deadline and cancellation, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, context.Canceled) report
// the cause precisely; a deadline additionally matches ErrTimeout, and a
// client closed mid-flight always reports ErrClosed.
func (c *Client) InvokeContext(ctx context.Context, body []byte) (Answer, error) {
	c.reqCount.Inc()
	start := time.Now()
	a, err := c.invoke(ctx, body)
	if err == nil {
		c.okCount.Inc()
		c.invokeLat.ObserveSince(start)
	}
	return a, err
}

func (c *Client) invoke(ctx context.Context, body []byte) (Answer, error) {
	var reqID [16]byte
	if _, err := rand.Read(reqID[:]); err != nil {
		return Answer{}, fmt.Errorf("core: %w", err)
	}
	env := envelope{ReqID: reqID, Body: body}
	plain, err := wire.MarshalBody(env)
	if err != nil {
		return Answer{}, err
	}
	payload := plain
	if c.mode == ModeSecureCausal {
		// Encrypt under the service key: servers see the request content
		// only after its position in the order is fixed.
		payload, err = scabc.Encrypt(c.pub.Enc, "svc/"+c.service, plain)
		if err != nil {
			return Answer{}, fmt.Errorf("core: encrypt request: %w", err)
		}
	}

	cl := &call{responses: make(map[int]responseBody), ch: make(chan Answer, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Answer{}, ErrClosed
	}
	c.pending[reqID] = cl
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
	}()

	// Send to all servers: corrupted servers could ignore the request, so
	// more than a corruptible set must receive it (paper §5).
	req, err := wire.MarshalBody(requestBody{ReqID: reqID, Payload: payload})
	if err != nil {
		return Answer{}, err
	}
	for s := 0; s < c.tr.N(); s++ {
		c.tr.Send(wire.Message{
			To:       s,
			Protocol: clientProtocol,
			Instance: c.service,
			Type:     typeRequest,
			Payload:  req,
		})
	}

	select {
	case a := <-cl.ch:
		return a, nil
	case <-ctx.Done():
		// A concurrently closed client wins deterministically: closing is
		// the more fundamental state, and reporting ErrTimeout for a dead
		// client would send the caller into a pointless retry.
		select {
		case <-c.done:
			return Answer{}, ErrClosed
		default:
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.timeoutCount.Inc()
			return Answer{}, fmt.Errorf("%w: %w", ErrTimeout, ctx.Err())
		}
		return Answer{}, fmt.Errorf("core: request canceled: %w", ctx.Err())
	case <-c.done:
		return Answer{}, ErrClosed
	}
}

// recvLoop processes RESPONSE messages until the transport closes.
func (c *Client) recvLoop() {
	defer close(c.done)
	for {
		m, ok := c.tr.Recv()
		if !ok {
			return
		}
		if m.Protocol != clientProtocol || m.Type != typeResponse {
			continue
		}
		var resp responseBody
		if wire.UnmarshalBody(m.Payload, &resp) != nil {
			// A corrupted server sent bytes that don't decode; drop and
			// count, mirroring the replica-side router.malformed guard.
			c.malformed.Inc()
			continue
		}
		c.onResponse(m.From, resp)
	}
}

func (c *Client) onResponse(from int, resp responseBody) {
	if from < 0 || from >= c.tr.N() || resp.Share.Party != from {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.pending[resp.ReqID]
	if !ok || cl.answered || cl.from.Has(from) {
		return
	}
	cl.from = cl.from.Add(from)
	cl.responses[from] = resp

	// Group responders by identical result; once a group that cannot be
	// entirely corrupted agrees, combine its shares, unverified.
	var agreeing adversary.Set
	shares := make([]thresig.Share, 0, len(cl.responses))
	for s, r := range cl.responses {
		if bytes.Equal(r.Result, resp.Result) {
			agreeing = agreeing.Add(s)
			shares = append(shares, r.Share)
		}
	}
	scheme := c.pub.AnswerSig()
	if !c.trust.HasHonest(c.trustObs, agreeing) || !scheme.Sufficient(agreeing) {
		return
	}
	stmt := answerStatement(c.service, resp.ReqID, resp.Result)
	sig, bad, err := thresig.Combine(scheme, stmt, shares)
	for _, i := range bad {
		// Corrupted server: invalid share. The counter is the client-side
		// view of server misbehavior; its later responses stay ignored.
		bp := shares[i].Party
		delete(cl.responses, bp)
		agreeing = agreeing.Remove(bp)
		c.badShares.Inc()
		c.obsReg.Trace(obs.Event{Party: bp, Protocol: clientProtocol,
			Instance: c.service, Stage: obs.StageDrop, Seq: -1,
			Note: "invalid response share"})
	}
	if err != nil || !c.trust.HasHonest(c.trustObs, agreeing) {
		return // wait for more shares
	}
	cl.answered = true // the one send into cl.ch, which has room for it
	cl.ch <- Answer{ReqID: resp.ReqID, Result: resp.Result, Seq: resp.Seq, Signature: sig}
}
