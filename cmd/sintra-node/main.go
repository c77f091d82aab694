// Command sintra-node runs one replica of a distributed trusted service
// over TCP, from a configuration directory written by sintra-dealer.
//
//	sintra-node -config ./deploy -index 0 -service directory
//
// Start one process per server (multi-process on one box, or spread over
// machines). The node serves until interrupted.
//
// Observability: -debug-addr serves a plain-text /metrics endpoint, the
// full metrics snapshot as expvar under /debug/vars, and the standard
// /debug/pprof profiles; -metrics-interval periodically dumps the same
// text snapshot to stderr. When neither flag is given, no registry is
// created and the protocol hot path pays nothing.
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sintra"
	"sintra/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sintra-node:", err)
		os.Exit(1)
	}
}

func loadAddrs(dir string, n int) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "addrs.txt"))
	if err != nil {
		return nil, err
	}
	addrs := strings.Fields(string(raw))
	if len(addrs) != n {
		return nil, fmt.Errorf("addrs.txt lists %d servers, deployment has %d", len(addrs), n)
	}
	return addrs, nil
}

// tuningFlags binds the replica knobs an operator can set to fs and
// returns the Tuning that Parse fills in; every knob without a flag keeps
// its default.
func tuningFlags(fs *flag.FlagSet) *sintra.Tuning {
	t := new(sintra.Tuning)
	fs.Int64Var(&t.CheckpointInterval, "checkpoint-interval", 0, "checkpoint/GC period in delivered requests (0: default, negative: disabled; atomic mode)")
	fs.IntVar(&t.CodedThreshold, "coded-threshold", 0, "request size in bytes from which proposals reference a request by digest instead of embedding it (0: default 4096, negative: always embed)")
	return t
}

func run() error {
	var (
		config  = flag.String("config", "sintra-deploy", "configuration directory from sintra-dealer")
		index   = flag.Int("index", -1, "this server's index")
		svcName = flag.String("name", "directory", "service instance name")
		svcKind = flag.String("service", "directory", "application: directory | notary")
		mode    = flag.String("mode", "atomic", "dissemination: atomic | causal")
		listen  = flag.String("listen", "", "listen address override (default: own entry of addrs.txt)")
		groupCk = flag.String("group", "", "expected group backend (modp2048 | p256 | test512 | test256): refuse to start if the dealt configuration uses a different one")

		trustConfig = flag.String("trust-config", "", "JSON trust-configuration file selecting the quorum backend: omitted or mode \"symmetric\" keeps the deployment's shared adversary structure; mode \"asymmetric\" lists one fail-prone system per party (identical file on every replica)")

		dataDir = flag.String("data-dir", "", "durable write-ahead log directory: protocol-critical messages are journaled before transmission, and a restart with the same directory recovers without amnesia (re-sending identical messages, never conflicting ones); empty disables durability (a restart rejoins via checkpoint catch-up with empty state)")

		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (empty: observability off)")
		metricsEvery = flag.Duration("metrics-interval", 0, "dump metrics to stderr this often (0: off)")
	)
	tuning := tuningFlags(flag.CommandLine)
	flag.Parse()

	pub, err := sintra.LoadPublic(*config)
	if err != nil {
		return err
	}
	n := pub.Structure.N()
	if *index < 0 || *index >= n {
		return fmt.Errorf("-index must be in [0,%d)", n)
	}
	// The group is fixed at dealing time and carried in public.gob; the
	// flag is an operator assertion that catches pointing a node at a
	// configuration dealt for a different backend before it joins.
	if *groupCk != "" && *groupCk != pub.GroupName {
		return fmt.Errorf("configuration %s was dealt for group %q, -group expects %q", *config, pub.GroupName, *groupCk)
	}
	secret, err := sintra.LoadPartySecret(*config, *index)
	if err != nil {
		return err
	}
	addrs, err := loadAddrs(*config, n)
	if err != nil {
		return err
	}
	bind := addrs[*index]
	if *listen != "" {
		bind = *listen
	}

	var qtrust sintra.Quorums
	if *trustConfig != "" {
		raw, err := os.ReadFile(*trustConfig)
		if err != nil {
			return err
		}
		spec, err := sintra.ParseTrustSpec(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", *trustConfig, err)
		}
		qtrust, err = spec.Build(pub.Structure)
		if err != nil {
			return fmt.Errorf("%s: %w", *trustConfig, err)
		}
	}

	var svc sintra.StateMachine
	switch *svcKind {
	case "directory":
		svc = sintra.NewDirectory()
	case "notary":
		svc = sintra.NewNotary()
	default:
		return fmt.Errorf("unknown service %q", *svcKind)
	}
	var m sintra.Mode
	switch *mode {
	case "atomic":
		m = sintra.ModeAtomic
	case "causal":
		m = sintra.ModeSecureCausal
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	tr, err := transport.NewServer(transport.Config{
		Self:       *index,
		N:          n,
		Addrs:      addrs,
		ListenAddr: bind,
		LinkKeys:   secret.LinkKeys,
	})
	if err != nil {
		return err
	}

	// Observability is strictly opt-in: without a registry every
	// instrument stays nil and the dispatch loop skips all bookkeeping.
	var reg *sintra.Registry
	if *debugAddr != "" || *metricsEvery > 0 {
		reg = sintra.NewRegistry()
		tr.SetObserver(reg)
	}

	node, err := sintra.NewNode(sintra.NodeConfig{
		Public:      pub,
		Secret:      secret,
		Transport:   tr,
		ServiceName: *svcName,
		Service:     svc,
		Mode:        m,
		Trust:       qtrust,
		Observer:    reg,
		DataDir:     *dataDir,
		Tuning:      *tuning,
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		expvar.Publish("sintra", expvar.Func(func() any { return reg.Snapshot() }))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			reg.Snapshot().WriteText(w)
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sintra-node: debug server:", err)
			}
		}()
		fmt.Printf("debug server on %s (/metrics, /debug/vars, /debug/pprof)\n", *debugAddr)
	}
	if *metricsEvery > 0 {
		go func() {
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for range tick.C {
				var buf bytes.Buffer
				reg.Snapshot().WriteText(&buf)
				fmt.Fprintf(os.Stderr, "--- metrics %s ---\n%s", time.Now().Format(time.RFC3339), buf.Bytes())
			}
		}()
	}
	fmt.Printf("server %d/%d serving %q (%s, %s) on %s\n", *index, n, *svcName, *svcKind, m, tr.Addr())

	done := make(chan struct{})
	go func() {
		defer close(done)
		node.Run()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("shutting down")
		node.Stop()
	case <-done:
	}
	return nil
}
