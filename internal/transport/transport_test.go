package transport_test

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sintra/internal/obs"
	"sintra/internal/transport"
	"sintra/internal/wire"
)

// newPair starts n servers on loopback with fresh link keys and returns
// the transports.
func newCluster(t *testing.T, n int) []*transport.Transport {
	t.Helper()
	keys := make([][][]byte, n)
	for i := range keys {
		keys[i] = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := make([]byte, 32)
			if _, err := rand.Read(k); err != nil {
				t.Fatal(err)
			}
			keys[i][j] = k
			keys[j][i] = k
		}
	}
	// First bind everyone on :0, then share the real addresses.
	trs := make([]*transport.Transport, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := transport.NewServer(transport.Config{
			Self: i, N: n,
			Addrs:      make([]string, n), // filled after all listeners bind
			ListenAddr: "127.0.0.1:0",
			LinkKeys:   keys[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	// NOTE: Config.Addrs was captured by value inside each transport; we
	// rebuild the transports now that addresses are known.
	for _, tr := range trs {
		tr.Close()
	}
	for i := 0; i < n; i++ {
		tr, err := transport.NewServer(transport.Config{
			Self: i, N: n,
			Addrs:      addrs,
			ListenAddr: addrs[i],
			LinkKeys:   keys[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

func recvWithTimeout(t *testing.T, tr *transport.Transport, timeout time.Duration) wire.Message {
	t.Helper()
	ch := make(chan wire.Message, 1)
	go func() {
		if m, ok := tr.Recv(); ok {
			ch <- m
		}
	}()
	select {
	case m := <-ch:
		return m
	case <-time.After(timeout):
		t.Fatal("timeout waiting for message")
		return wire.Message{}
	}
}

func TestServerToServer(t *testing.T) {
	trs := newCluster(t, 3)
	trs[0].Send(wire.Message{To: 1, Protocol: "p", Instance: "i", Type: "T", Payload: []byte("hello")})
	m := recvWithTimeout(t, trs[1], 10*time.Second)
	if m.From != 0 || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestLoopback(t *testing.T) {
	trs := newCluster(t, 2)
	trs[0].Send(wire.Message{To: 0, Protocol: "p", Type: "T"})
	m := recvWithTimeout(t, trs[0], 5*time.Second)
	if m.From != 0 || m.Protocol != "p" {
		t.Fatalf("got %+v", m)
	}
}

func TestSenderIdentityIsChannelBound(t *testing.T) {
	// A server cannot spoof another sender: From is overwritten by the
	// receiving side based on the authenticated channel.
	trs := newCluster(t, 3)
	trs[2].Send(wire.Message{From: 0, To: 1, Protocol: "p", Type: "T"})
	m := recvWithTimeout(t, trs[1], 10*time.Second)
	if m.From != 2 {
		t.Fatalf("spoofed From accepted: %d", m.From)
	}
}

func TestClientRoundTrip(t *testing.T) {
	trs := newCluster(t, 2)
	addrs := []string{trs[0].Addr(), trs[1].Addr()}
	client, err := transport.NewClient(transport.Config{Self: 7, N: 2, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Send(wire.Message{To: 0, Protocol: "req", Type: "Q", Payload: []byte("ping")})
	m := recvWithTimeout(t, trs[0], 10*time.Second)
	if m.From != 7 || string(m.Payload) != "ping" {
		t.Fatalf("got %+v", m)
	}
	// Server replies over the client's connection.
	trs[0].Send(wire.Message{To: 7, Protocol: "resp", Type: "A", Payload: []byte("pong")})
	r := recvWithTimeout(t, client, 10*time.Second)
	if r.From != 0 || string(r.Payload) != "pong" {
		t.Fatalf("got %+v", r)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	trs := newCluster(t, 2)
	addrs := []string{trs[0].Addr(), trs[1].Addr()}
	badKeys := make([][]byte, 2)
	badKeys[0] = make([]byte, 32) // zero key: wrong
	badKeys[1] = make([]byte, 32)
	evil, err := transport.NewServer(transport.Config{
		Self: 1, N: 2, Addrs: addrs, ListenAddr: "127.0.0.1:0", LinkKeys: badKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	evil.Send(wire.Message{To: 0, Protocol: "p", Type: "T", Payload: []byte("forged")})
	ch := make(chan wire.Message, 1)
	go func() {
		if m, ok := trs[0].Recv(); ok {
			ch <- m
		}
	}()
	select {
	case m := <-ch:
		t.Fatalf("message over unauthenticated link accepted: %+v", m)
	case <-time.After(500 * time.Millisecond):
	}
}

func TestManyMessagesInOrderPerLink(t *testing.T) {
	trs := newCluster(t, 2)
	const total = 200
	go func() {
		for k := 0; k < total; k++ {
			trs[0].Send(wire.Message{To: 1, Protocol: "p", Type: "T", Payload: []byte{byte(k)}})
		}
	}()
	for k := 0; k < total; k++ {
		m := recvWithTimeout(t, trs[1], 10*time.Second)
		if int(m.Payload[0]) != k {
			t.Fatalf("out of order: got %d want %d", m.Payload[0], k)
		}
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	trs := newCluster(t, 2)
	done := make(chan bool, 1)
	go func() {
		_, ok := trs[0].Recv()
		done <- ok
	}()
	time.Sleep(50 * time.Millisecond)
	trs[0].Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned message after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := transport.NewServer(transport.Config{Self: 5, N: 2}); err == nil {
		t.Fatal("bad self accepted")
	}
	if _, err := transport.NewClient(transport.Config{Self: 0, N: 2, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("client with server index accepted")
	}
	if _, err := transport.NewClient(transport.Config{Self: 5, N: 2, Addrs: []string{"a"}}); err == nil {
		t.Fatal("short addrs accepted")
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	// Build a two-server cluster with explicit keys so server 1 can be
	// restarted with identical material.
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	keys0 := [][]byte{nil, key}
	keys1 := [][]byte{key, nil}
	bind := func(self int, addrs []string, listen string, keys [][]byte) *transport.Transport {
		tr, err := transport.NewServer(transport.Config{
			Self: self, N: 2, Addrs: addrs, ListenAddr: listen, LinkKeys: keys,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr0 := bind(0, make([]string, 2), "127.0.0.1:0", keys0)
	tr1 := bind(1, make([]string, 2), "127.0.0.1:0", keys1)
	addrs := []string{tr0.Addr(), tr1.Addr()}
	tr0.Close()
	tr1.Close()
	tr0 = bind(0, addrs, addrs[0], keys0)
	defer tr0.Close()
	tr1 = bind(1, addrs, addrs[1], keys1)

	// Establish the link.
	tr0.Send(wire.Message{To: 1, Protocol: "p", Type: "A"})
	recvWithTimeout(t, tr1, 10*time.Second)

	// Restart server 1 on the same address with the same keys.
	tr1.Close()
	restarted := bind(1, addrs, addrs[1], keys1)
	defer restarted.Close()

	// Server 0's old outbound connection is dead; sends must redial.
	got := make(chan wire.Message, 16)
	go func() {
		for {
			m, ok := restarted.Recv()
			if !ok {
				return
			}
			got <- m
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		tr0.Send(wire.Message{To: 1, Protocol: "p", Type: "B"})
		select {
		case m := <-got:
			if m.From != 0 || m.Type != "B" {
				t.Fatalf("got %+v", m)
			}
			return
		case <-time.After(300 * time.Millisecond):
		}
	}
	t.Fatal("no delivery after peer restart")
}

// TestHelloOfAnotherFormatRefused: a peer whose hello names another wire
// format — a decodable hello with the old magic, or a gob-era hello that
// does not decode at all — is refused at connect time, counted, and traced
// with the magic it spoke.
func TestHelloOfAnotherFormatRefused(t *testing.T) {
	tr, err := transport.NewServer(transport.Config{
		Self: 0, N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"},
		ListenAddr: "127.0.0.1:0", LinkKeys: [][]byte{nil, make([]byte, 32)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	events := obs.NewCollectTracer()
	reg.SetTracer(events)
	tr.SetObserver(reg)

	type hello struct { // the transport's hello, field for field
		Magic string
		From  int
		Nonce []byte
		MAC   []byte
	}
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(hello{Magic: "sintra1", From: 1, Nonce: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name  string
		frame []byte
	}{
		{"old-magic", wire.MustMarshalBody(hello{Magic: "sintra6", From: 1, Nonce: make([]byte, 16)})},
		{"gob", gobHello.Bytes()},
	} {
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(tc.frame)))
		if _, err := conn.Write(append(lb[:], tc.frame...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s hello: connection not closed by the server (%v)", tc.name, err)
		}
		conn.Close()
		if n := reg.Snapshot().Counter("transport.hello.refused"); n != int64(i+1) {
			t.Fatalf("%s hello: transport.hello.refused = %d, want %d", tc.name, n, i+1)
		}
	}
	var noted bool
	for _, ev := range events.Events() {
		noted = noted || strings.Contains(ev.Note, `"sintra6"`)
	}
	if !noted {
		t.Fatal("the refused magic was not traced")
	}
}
