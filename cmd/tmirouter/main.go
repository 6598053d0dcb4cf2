// Command tmirouter is the cluster routing tier for tmid: an HTTP proxy
// that consistent-hashes tenant IDs onto N tmid nodes (a bounded-load ring
// with cluster.DefaultVNodes virtual nodes per node, no node carrying more
// than ceil(cluster.DefaultBoundFactor * mean) streams), probes each
// node's /healthz for membership, and live-migrates tenant sessions
// between nodes when the ring changes — a drained or rebalanced tenant's
// session checkpoint (its record and window counts, taken at a tick
// boundary) is shipped through the source node's /v1/migrate and restored
// on the destination before ingest cuts over, so its advice stream stays
// byte-identical (see internal/cluster and DESIGN §17). Nodes must run
// with tmid -migratable.
//
// Usage:
//
//	tmirouter -nodes http://h1:7412,http://h2:7412,http://h3:7412
//	tmirouter -nodes-file nodes.txt        # one URL per line; SIGHUP reloads
//	tmirouter -addr 127.0.0.1:0 -addr-file a
//
// Endpoints: POST /v1/stream (relayed), GET /healthz, GET /metrics
// (router counters + whitelisted per-node aggregation), GET /admin/ring,
// POST /admin/{add,remove,drain}?node=URL, POST /admin/reload (JSON node
// list). SIGINT/SIGTERM exit after closing the listener.
//
// Every node URL must be an absolute http(s) URL with a host: a bad one in
// -nodes or -nodes-file exits 2 at start-up, a bad one on SIGHUP keeps the
// old membership, and /admin/add, /admin/drain and /admin/reload answer 400
// and change nothing.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// readNodesFile parses one node URL per line, '#' comments and blanks
// skipped.
func readNodesFile(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var nodes []string
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		nodes = append(nodes, line)
	}
	return nodes, nil
}

func main() {
	var (
		addr      = flag.String("addr", ":7410", "listen address (port 0 picks an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening (for scripted startup)")
		nodesCSV  = flag.String("nodes", "", "comma-separated tmid node base URLs")
		nodesFile = flag.String("nodes-file", "", "file with one node URL per line; SIGHUP re-reads it and applies the new membership live")
		probe     = flag.Duration("probe", 500*time.Millisecond, "node /healthz probe interval")
		failAfter = flag.Int("fail-after", 3, "consecutive probe failures before a node leaves the ring")
	)
	flag.Parse()

	var nodes []string
	if *nodesCSV != "" {
		for _, n := range strings.Split(*nodesCSV, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
	}
	if *nodesFile != "" {
		fromFile, err := readNodesFile(*nodesFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmirouter:", err)
			os.Exit(2)
		}
		nodes = append(nodes, fromFile...)
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "tmirouter: need -nodes or -nodes-file")
		os.Exit(2)
	}
	rt, err := cluster.New(cluster.Config{
		Nodes: nodes, ProbeInterval: *probe, FailAfter: *failAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmirouter: node", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmirouter:", err)
		os.Exit(1)
	}
	boundAddr := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(boundAddr+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tmirouter:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("tmirouter: listening on %s, %d nodes (vnodes %d, bound %.2f, probe %s)\n",
		boundAddr, len(nodes), cluster.DefaultVNodes, cluster.DefaultBoundFactor, *probe)

	hs := &http.Server{Handler: rt.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case got := <-sig:
			if got == syscall.SIGHUP {
				if *nodesFile == "" {
					fmt.Println("tmirouter: SIGHUP ignored (no -nodes-file)")
					continue
				}
				fresh, err := readNodesFile(*nodesFile)
				if err != nil {
					fmt.Fprintln(os.Stderr, "tmirouter: reload:", err)
					continue
				}
				if err := rt.SetNodes(fresh); err != nil {
					fmt.Fprintln(os.Stderr, "tmirouter: reload: node", err, "(membership unchanged)")
					continue
				}
				fmt.Printf("tmirouter: reloaded %d nodes (gen %d)\n", len(fresh), rt.Generation())
				continue
			}
			fmt.Printf("tmirouter: %s, shutting down\n", got)
			hs.Close()
			rt.Close()
			return
		case err := <-done:
			fmt.Fprintln(os.Stderr, "tmirouter: serve:", err)
			rt.Close()
			os.Exit(1)
		}
	}
}
