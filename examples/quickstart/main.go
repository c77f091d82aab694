// Command quickstart runs the smallest possible SINTRA deployment — four
// replicas tolerating one Byzantine corruption, in-process over the
// adversarially scheduled simulated network — and exercises the secure
// directory: it issues a certificate, stores an entry, and reads it back,
// verifying the service's threshold signature on every answer.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sintra"
	"sintra/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. An adversary structure: classic 4 servers, one corruptible.
	st, err := sintra.NewThresholdStructure(4, 1)
	if err != nil {
		return err
	}
	fmt.Printf("structure: %v (Q3 satisfied: %v)\n", st, st.Q3())

	// 2. Deal keys and start the replicas (the trusted dealer runs once).
	dep, err := sintra.NewDeployment(st,
		func() sintra.StateMachine { return sintra.NewDirectory() },
		sintra.WithServiceName("directory"),
		sintra.WithSeed(42),
	)
	if err != nil {
		return err
	}
	defer dep.Stop()

	client, err := dep.NewClient()
	if err != nil {
		return err
	}

	// One deadline bounds the whole walkthrough; every invocation inherits
	// it through the context.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// 3. Obtain a certificate from the distributed CA.
	req, _ := json.Marshal(service.DirectoryRequest{
		Op: service.OpIssue, Name: "alice@example.com", PubKey: []byte("alice-public-key"),
	})
	ans, err := client.InvokeContext(ctx, req)
	if err != nil {
		return fmt.Errorf("issue: %w", err)
	}
	var resp service.DirectoryResponse
	if err := json.Unmarshal(ans.Result, &resp); err != nil {
		return err
	}
	fmt.Printf("certificate: serial=%d name=%s (ordered at seq %d)\n",
		resp.Certificate.Serial, resp.Certificate.Name, ans.Seq)

	// The threshold signature proves the answer came from the service as a
	// whole: no corruptible subset of servers can forge it.
	if err := sintra.VerifyAnswer(dep.Public, "directory", ans.ReqID, ans.Result, ans.Signature); err != nil {
		return fmt.Errorf("threshold signature: %w", err)
	}
	fmt.Println("threshold signature on the certificate verifies ✓")

	// 4. Use the directory: put then get.
	req, _ = json.Marshal(service.DirectoryRequest{Op: service.OpPut, Key: "dns:example.com", Value: "192.0.2.7"})
	if _, err := client.InvokeContext(ctx, req); err != nil {
		return fmt.Errorf("put: %w", err)
	}
	req, _ = json.Marshal(service.DirectoryRequest{Op: service.OpGet, Key: "dns:example.com"})
	ans, err = client.InvokeContext(ctx, req)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if err := json.Unmarshal(ans.Result, &resp); err != nil {
		return err
	}
	fmt.Printf("directory lookup: dns:example.com -> %s (version %d), signed answer ✓\n",
		resp.Value, resp.Version)

	snap := dep.Metrics()
	var bytes int64
	for _, b := range snap.CountersWithPrefix("net.bytes.") {
		bytes += b
	}
	fmt.Printf("traffic: %d messages, %d bytes, per layer %v\n",
		snap.Counter("net.delivered"), bytes, snap.CountersWithPrefix("net.msgs."))
	return nil
}
