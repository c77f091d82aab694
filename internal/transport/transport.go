// Package transport implements the real network transport: length-prefixed
// frames over TCP with per-link HMAC-SHA256 authentication, used to run a
// SINTRA deployment as separate processes (one per server) on one box or
// across machines.
//
// The paper's model assumes authenticated asynchronous point-to-point
// channels between servers (§2); the dealer's pairwise link keys provide
// the authentication. Server-to-server connections are mutually
// authenticated with a nonce handshake and per-frame MACs; client
// connections are unauthenticated at the transport layer — clients are
// untrusted in the model, and all client-visible guarantees come from the
// threshold cryptography above.
//
// Each direction uses its own connection (the dialer only writes, the
// acceptor only reads), which keeps reconnect logic trivial: a failed
// outbound connection is redialed with backoff on the next send.
package transport

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

// maxFrame bounds a single frame; larger frames indicate corruption.
const maxFrame = 64 << 20

// redialBase is the initial pause between outbound connection attempts;
// redialMax caps the exponential growth. Both are variables so tests can
// compress time.
var (
	redialBase = 200 * time.Millisecond
	redialMax  = 5 * time.Second
)

// dialAttempts bounds how many times a send retries establishing a
// connection before dropping the message (the asynchronous model allows
// message loss to crashed peers; protocols retransmit by design).
const dialAttempts = 25

// giveUpAfter is how many consecutive failed dials at the backoff
// ceiling mark a peer as unreachable: the link has been down long past
// transient-blip territory, and "transport.redial.giveup" counts it once
// per outage. Backoff itself never stops: the peer keeps being probed and
// the streak resets on the first successful dial.
const giveUpAfter = 5

// maxCoalesce caps how many queued messages one flush drains. A slow link
// accumulates a backlog while a write is in flight; draining it in one
// syscall amortizes the per-write cost, but an unbounded drain could pin an
// arbitrarily large assembly buffer, so bursts beyond the cap simply take
// another flush.
const maxCoalesce = 128

// maxPooledWriteBuf bounds the capacity of write buffers returned to
// writeBufs; outlier bursts fall back to the garbage collector.
const maxPooledWriteBuf = 1 << 20

// writeBufs recycles the per-flush frame assembly buffers across all links.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

func getWriteBuf() *[]byte { return writeBufs.Get().(*[]byte) }

func putWriteBuf(b *[]byte) {
	if cap(*b) > maxPooledWriteBuf {
		return
	}
	*b = (*b)[:0]
	writeBufs.Put(b)
}

// redialBackoff returns the un-jittered backoff before redial attempt n
// (n >= 1): the base doubled per consecutive failure, capped at
// redialMax. Reaching the cap is also the give-up detector's signal
// that the peer has been down well past transient-blip territory.
func redialBackoff(attempt int) time.Duration {
	d := redialBase
	for i := 1; i < attempt && d < redialMax; i++ {
		d *= 2
	}
	if d > redialMax {
		d = redialMax
	}
	return d
}

// redialDelay returns the pause before redial attempt n (n >= 1):
// redialBackoff jittered into [d/2, d) so redialers across parties
// desynchronize. The jitter is a hash of (attempt, self, dest) rather
// than a random draw, keeping runs reproducible.
func redialDelay(attempt, self, dest int) time.Duration {
	d := redialBackoff(attempt)
	h := uint64(attempt)*0x9e3779b97f4a7c15 + uint64(self)*0xbf58476d1ce4e5b9 + uint64(dest)*0x94d049bb133111eb
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + h%half)
}

// helloMagic starts every connection; it names the wire.Format.
var helloMagic = fmt.Sprint("sintra", wire.Format)

// hello is the first frame of a connection.
type hello struct {
	Magic string
	From  int
	Nonce []byte
	MAC   []byte // HMAC(linkKey, magic|from|to|nonce); empty for clients
}

// Config configures a transport endpoint.
type Config struct {
	// Self is this endpoint's index: 0..N-1 for servers, >= N for clients.
	Self int
	// N is the number of servers.
	N int
	// Addrs holds the listen addresses of all servers (length N).
	Addrs []string
	// ListenAddr is this server's bind address (servers only).
	ListenAddr string
	// LinkKeys[j] authenticates the link to server j (servers only).
	LinkKeys [][]byte
}

// Transport is a TCP implementation of wire.Transport.
type Transport struct {
	cfg Config

	listener net.Listener

	mu       sync.Mutex
	writers  map[int]*peerWriter // outbound connections by destination
	clients  map[int]*peerWriter // reply channels to connected clients
	accepted map[net.Conn]bool   // inbound connections, closed on shutdown

	inbox  chan wire.Message
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mx *transportMetrics // nil when observability is off
}

// transportMetrics holds the TCP transport's instruments: per-protocol
// sent/received messages and bytes, outbound queue depth, and drops after
// exhausted redials.
type transportMetrics struct {
	sentMsgs   *obs.CounterVec
	sentBytes  *obs.CounterVec
	recvMsgs   *obs.CounterVec
	recvBytes  *obs.CounterVec
	queueDepth *obs.Gauge
	dropped    *obs.Counter
	redials    *obs.Counter
	giveups    *obs.Counter
	flushes    *obs.Counter
	refused    *obs.Counter
	reg        *obs.Registry
}

// SetObserver reports the transport's traffic through reg: counters
// "transport.sent.msgs.<protocol>" (and .bytes, and the recv twins),
// "transport.dropped", "transport.redials", "transport.flushes" (one per
// coalesced write, so sent.msgs/flushes is the mean batch per syscall),
// "transport.hello.refused" per peer refused at its hello (the reason is
// traced), and the gauge "transport.queue.depth" summing all outbound queues.
// Call before the first Send; a nil registry turns observability off.
func (t *Transport) SetObserver(reg *obs.Registry) {
	t.mu.Lock() // the listener is accepting: serveConn reads mx after taking mu
	defer t.mu.Unlock()
	if reg == nil {
		t.mx = nil
		return
	}
	t.mx = &transportMetrics{
		sentMsgs:   reg.CounterVec("transport.sent.msgs"),
		sentBytes:  reg.CounterVec("transport.sent.bytes"),
		recvMsgs:   reg.CounterVec("transport.recv.msgs"),
		recvBytes:  reg.CounterVec("transport.recv.bytes"),
		queueDepth: reg.Gauge("transport.queue.depth"),
		dropped:    reg.Counter("transport.dropped"),
		redials:    reg.Counter("transport.redials"),
		giveups:    reg.Counter("transport.redial.giveup"),
		flushes:    reg.Counter("transport.flushes"),
		refused:    reg.Counter("transport.hello.refused"),
		reg:        reg,
	}
}

// countSent/countRecv record one message (nil-safe).
func (m *transportMetrics) countSent(msg *wire.Message) {
	if m != nil {
		m.sentMsgs.With(msg.Protocol).Inc()
		m.sentBytes.With(msg.Protocol).Add(int64(msg.Size()))
	}
}

func (m *transportMetrics) countRecv(msg *wire.Message) {
	if m != nil {
		m.recvMsgs.With(msg.Protocol).Inc()
		m.recvBytes.With(msg.Protocol).Add(int64(msg.Size()))
	}
}

func (m *transportMetrics) queueAdd(d int64) {
	if m != nil {
		m.queueDepth.Add(d)
	}
}

func (m *transportMetrics) drop() {
	if m != nil {
		m.dropped.Inc()
	}
}

func (m *transportMetrics) redial() {
	if m != nil {
		m.redials.Inc()
	}
}

func (m *transportMetrics) giveup() {
	if m != nil {
		m.giveups.Inc()
	}
}

func (m *transportMetrics) flush() {
	if m != nil {
		m.flushes.Inc()
	}
}

// refuse counts and traces an inbound connection refused at its hello.
func (t *Transport) refuse(reason string) {
	if t.mx != nil {
		t.mx.refused.Inc()
		t.mx.reg.Trace(obs.Event{Party: t.cfg.Self, Protocol: "transport", Stage: obs.StageDrop, Seq: -1, Note: reason})
	}
}

var _ wire.Transport = (*Transport)(nil)

// NewServer starts a server endpoint: it listens on cfg.ListenAddr and
// lazily dials peers on first send.
func NewServer(cfg Config) (*Transport, error) {
	if cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("transport: server index %d out of range", cfg.Self)
	}
	if len(cfg.Addrs) != cfg.N || len(cfg.LinkKeys) != cfg.N {
		return nil, errors.New("transport: need addresses and link keys for every server")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := newTransport(cfg)
	t.listener = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// NewClient starts a client endpoint with the given id (>= N). It holds no
// listener; servers reply over the client's own connections.
func NewClient(cfg Config) (*Transport, error) {
	if cfg.Self < cfg.N {
		return nil, fmt.Errorf("transport: client index %d must be >= n=%d", cfg.Self, cfg.N)
	}
	if len(cfg.Addrs) != cfg.N {
		return nil, errors.New("transport: need addresses for every server")
	}
	return newTransport(cfg), nil
}

func newTransport(cfg Config) *Transport {
	return &Transport{
		cfg:      cfg,
		writers:  make(map[int]*peerWriter),
		clients:  make(map[int]*peerWriter),
		accepted: make(map[net.Conn]bool),
		inbox:    make(chan wire.Message, 1024),
		closed:   make(chan struct{}),
	}
}

// Self returns the endpoint index.
func (t *Transport) Self() int { return t.cfg.Self }

// N returns the number of servers.
func (t *Transport) N() int { return t.cfg.N }

// Addr returns the actual listen address (servers only).
func (t *Transport) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// Close shuts the endpoint down.
func (t *Transport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		if t.listener != nil {
			t.listener.Close()
		}
		t.mu.Lock()
		for _, w := range t.writers {
			w.close()
		}
		for _, w := range t.clients {
			w.close()
		}
		for conn := range t.accepted {
			conn.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// Recv blocks for the next inbound message.
func (t *Transport) Recv() (wire.Message, bool) {
	select {
	case m := <-t.inbox:
		return m, true
	case <-t.closed:
		// Drain anything already queued.
		select {
		case m := <-t.inbox:
			return m, true
		default:
			return wire.Message{}, false
		}
	}
}

// Send enqueues a message. Messages to unreachable peers are dropped after
// bounded retries (asynchronous model: protocols tolerate loss to faulty
// peers).
func (t *Transport) Send(m wire.Message) {
	m.From = t.cfg.Self
	t.mx.countSent(&m)
	if m.To == t.cfg.Self {
		// Loopback without touching the network.
		select {
		case t.inbox <- m:
		case <-t.closed:
		}
		return
	}
	w := t.writerFor(m.To)
	if w == nil {
		return
	}
	w.enqueue(m)
}

// writerFor returns (creating if needed) the outbound writer to dest.
func (t *Transport) writerFor(dest int) *peerWriter {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return nil
	default:
	}
	if dest >= t.cfg.N {
		// Reply to a client over its own connection, if still present.
		return t.clients[dest]
	}
	if w, ok := t.writers[dest]; ok {
		return w
	}
	w := newPeerWriter(t, dest)
	t.writers[dest] = w
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		w.run()
	}()
	return w
}

// acceptLoop receives inbound connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
		}()
	}
}

// serveConn authenticates a peer and pumps its frames into the inbox.
func (t *Transport) serveConn(conn net.Conn) {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		conn.Close()
		return
	default:
	}
	t.accepted[conn] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	raw, err := readFrame(conn)
	if err != nil {
		return
	}
	var h hello
	if err := wire.UnmarshalBody(raw, &h); err != nil || h.Magic != helloMagic {
		// Most likely a peer of another wire.Format; a gob-era hello does not decode.
		t.refuse(fmt.Sprintf("hello refused: magic %q (%v), this build speaks %q", h.Magic, err, helloMagic))
		return
	}
	var session []byte
	switch {
	case h.From >= 0 && h.From < t.cfg.N && h.From != t.cfg.Self:
		// Server peer, never this server itself (abc takes what comes from
		// its own index unchecked): verify the hello MAC under the link key.
		key := t.cfg.LinkKeys[h.From]
		if len(key) == 0 || !hmac.Equal(h.MAC, helloMAC(key, h.From, t.cfg.Self, h.Nonce)) {
			return
		}
		session = sessionKey(key, h.Nonce)
	case h.From >= t.cfg.N:
		// Client: unauthenticated; remember the connection for replies.
		w := newClientWriter(conn, t.mx)
		t.mu.Lock()
		t.clients[h.From] = w
		t.mu.Unlock()
		defer func() {
			t.mu.Lock()
			if t.clients[h.From] == w {
				delete(t.clients, h.From)
			}
			t.mu.Unlock()
			w.close()
		}()
	default:
		return
	}

	var counter uint64
	for {
		raw, err := readFrame(conn)
		if err != nil {
			return
		}
		payload := raw
		if session != nil {
			if len(raw) < sha256.Size {
				return
			}
			payload = raw[:len(raw)-sha256.Size]
			mac := raw[len(raw)-sha256.Size:]
			if !hmac.Equal(mac, frameMAC(session, counter, payload)) {
				return
			}
		}
		counter++
		m, err := wire.DecodeMessage(payload)
		if err != nil {
			continue
		}
		m.From = h.From // the channel authenticates the sender
		t.mx.countRecv(&m)
		select {
		case t.inbox <- m:
		case <-t.closed:
			return
		}
	}
}

// peerWriter owns one outbound connection (dialing and redialing).
type peerWriter struct {
	t    *Transport
	dest int
	mx   *transportMetrics

	mu     sync.Mutex
	queue  []wire.Message
	cond   *sync.Cond
	closed bool

	// client-reply mode: write directly to an accepted connection.
	direct net.Conn
}

func newPeerWriter(t *Transport, dest int) *peerWriter {
	w := &peerWriter{t: t, dest: dest, mx: t.mx}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func newClientWriter(conn net.Conn, mx *transportMetrics) *peerWriter {
	w := &peerWriter{direct: conn, mx: mx}
	w.cond = sync.NewCond(&w.mu)
	go w.runDirect()
	return w
}

func (w *peerWriter) enqueue(m wire.Message) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.queue = append(w.queue, m)
	w.mx.queueAdd(1)
	w.cond.Signal()
}

func (w *peerWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if w.direct != nil {
		w.direct.Close()
	}
}

// drain blocks until the queue is non-empty, then takes up to maxCoalesce
// messages in one swap. A writer that fell behind its queue — a slow link,
// a redial in progress — therefore flushes its whole backlog with a single
// write on the next pass, while an idle link still flushes every message
// the moment it arrives (the swap never waits for a batch to fill).
func (w *peerWriter) drain() ([]wire.Message, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		return nil, false
	}
	batch := w.queue
	if len(batch) > maxCoalesce {
		batch = batch[:maxCoalesce:maxCoalesce]
		w.queue = w.queue[maxCoalesce:]
	} else {
		w.queue = nil
	}
	w.mx.queueAdd(-int64(len(batch)))
	return batch, true
}

// encodeBatch serializes a drained batch into per-message envelope frames.
// Bodies that fail to encode are skipped (a programming error on our own
// side, never attacker input).
func encodeBatch(batch []wire.Message) [][]byte {
	payloads := make([][]byte, 0, len(batch))
	for i := range batch {
		p, err := wire.EncodeMessage(&batch[i])
		if err != nil {
			continue
		}
		payloads = append(payloads, p)
	}
	return payloads
}

// appendFrame appends one length-prefixed frame carrying payload to dst and
// returns the extended buffer. With a non-nil session the frame gains the
// per-frame counter MAC, exactly as a standalone writeFrame would send it —
// the receive path cannot tell coalesced frames from individual ones.
func appendFrame(dst []byte, session []byte, counter uint64, payload []byte) []byte {
	flen := len(payload)
	if session != nil {
		flen += sha256.Size
	}
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(flen))
	dst = append(dst, lb[:]...)
	dst = append(dst, payload...)
	if session != nil {
		dst = append(dst, frameMAC(session, counter, payload)...)
	}
	return dst
}

// runDirect serves replies to a connected client (no MAC): drain the
// backlog, assemble every frame into one pooled buffer, write once.
func (w *peerWriter) runDirect() {
	for {
		batch, ok := w.drain()
		if !ok {
			return
		}
		buf := getWriteBuf()
		out := (*buf)[:0]
		for _, p := range encodeBatch(batch) {
			out = appendFrame(out, nil, 0, p)
		}
		*buf = out
		_, err := w.direct.Write(out)
		w.mx.flush()
		putWriteBuf(buf)
		if err != nil {
			return
		}
	}
}

// run dials the destination server and writes queued frames, redialing on
// failure with capped exponential backoff. The failure streak spans
// batches — a peer that has been down for a while is probed gently even
// as new sends queue up — and resets on a successful dial. All frames of a
// drained batch are assembled into one pooled buffer and written with a
// single syscall; on a write error the whole batch is re-framed for the
// next connection, whose MAC counter restarts at zero.
func (w *peerWriter) run() {
	var conn net.Conn
	var session []byte
	var counter uint64
	failures := 0     // consecutive failed dials, across batches
	atCeiling := 0    // consecutive failed dials with backoff at its cap
	reported := false // give-up already reported for this outage
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		batch, ok := w.drain()
		if !ok {
			return
		}
		payloads := encodeBatch(batch)
		if len(payloads) == 0 {
			continue
		}
		for attempt := 0; ; attempt++ {
			if conn == nil {
				w.mx.redial()
				conn, session, counter = w.dial()
				if conn == nil {
					failures++
					// Give-up detection: once the backoff has sat at
					// its ceiling for giveUpAfter consecutive attempts,
					// flag the peer as (presumed) permanently dead —
					// once per outage. Probing never stops; a
					// successful dial clears the outage.
					if redialBackoff(failures) >= redialMax {
						atCeiling++
						if !reported && atCeiling >= giveUpAfter {
							reported = true
							w.mx.giveup()
						}
					}
					if attempt >= dialAttempts {
						for range payloads {
							w.mx.drop()
						}
						break // drop the batch
					}
					select {
					case <-w.t.closed:
						return
					case <-time.After(redialDelay(failures, w.t.cfg.Self, w.dest)):
					}
					continue
				}
				failures, atCeiling, reported = 0, 0, false
			}
			buf := getWriteBuf()
			out := (*buf)[:0]
			next := counter
			for _, p := range payloads {
				out = appendFrame(out, session, next, p)
				next++
			}
			*buf = out
			_, err := conn.Write(out)
			putWriteBuf(buf)
			if err != nil {
				conn.Close()
				conn = nil
				continue
			}
			w.mx.flush()
			counter = next
			break
		}
	}
}

// dial establishes and authenticates an outbound connection.
func (w *peerWriter) dial() (net.Conn, []byte, uint64) {
	conn, err := net.DialTimeout("tcp", w.t.cfg.Addrs[w.dest], time.Second)
	if err != nil {
		return nil, nil, 0
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		conn.Close()
		return nil, nil, 0
	}
	h := hello{Magic: helloMagic, From: w.t.cfg.Self, Nonce: nonce}
	var session []byte
	if w.t.cfg.Self < w.t.cfg.N {
		key := w.t.cfg.LinkKeys[w.dest]
		h.MAC = helloMAC(key, w.t.cfg.Self, w.dest, nonce)
		session = sessionKey(key, nonce)
	}
	raw, err := wire.MarshalBody(&h)
	if err != nil {
		conn.Close()
		return nil, nil, 0
	}
	if writeFrame(conn, raw) != nil {
		conn.Close()
		return nil, nil, 0
	}
	if w.t.cfg.Self >= w.t.cfg.N {
		// Clients receive replies over their own outbound connection.
		w.t.wg.Add(1)
		go func() {
			defer w.t.wg.Done()
			w.t.readReplies(conn, w.dest)
		}()
	}
	return conn, session, 0
}

// readReplies pumps a client's dialed connection into the inbox; the
// sender identity is the dialed server (channel-bound).
func (t *Transport) readReplies(conn net.Conn, server int) {
	for {
		raw, err := readFrame(conn)
		if err != nil {
			return
		}
		m, err := wire.DecodeMessage(raw)
		if err != nil {
			continue
		}
		m.From = server
		t.mx.countRecv(&m)
		select {
		case t.inbox <- m:
		case <-t.closed:
			return
		}
	}
}

// Frame helpers.

func readFrame(r io.Reader) ([]byte, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lb[:])
	if n > maxFrame {
		return nil, errors.New("transport: oversized frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFrame(conn net.Conn, payload []byte) error {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(payload)))
	if _, err := conn.Write(lb[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func helloMAC(key []byte, from, to int, nonce []byte) []byte {
	mac := hmac.New(sha256.New, key)
	fmt.Fprintf(mac, "%s|%d|%d|", helloMagic, from, to)
	mac.Write(nonce)
	return mac.Sum(nil)
}

func sessionKey(key, nonce []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("session"))
	mac.Write(nonce)
	return mac.Sum(nil)
}

func frameMAC(session []byte, counter uint64, payload []byte) []byte {
	mac := hmac.New(sha256.New, session)
	var cb [8]byte
	binary.BigEndian.PutUint64(cb[:], counter)
	mac.Write(cb[:])
	mac.Write(payload)
	return mac.Sum(nil)
}
