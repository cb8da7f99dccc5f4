package main

// The -gateway mode: the same binary, serving the cluster routing
// gateway (internal/cluster) instead of a single node. One binary keeps
// deploys simple — `prefcoverd -gateway -nodes host1:8080,host2:8080`
// fronts any set of plain prefcoverd processes; the gateway carries the
// same operational surface (/healthz, /readyz, /metrics,
// /debug/statusz, /debug/cluster) and the same graceful-drain shutdown
// discipline as a node.

import (
	"log/slog"
	"strings"
	"time"

	"prefcover/internal/cluster"
	"prefcover/internal/slo"
)

// gatewayFlags is the -gateway flag group, registered by run.
type gatewayFlags struct {
	nodes          string
	replicas       int
	vnodes         int
	probeInterval  time.Duration
	probeTimeout   time.Duration
	requestTimeout time.Duration
	maxAttempts    int
}

// runGateway is run()'s -gateway branch: build the gateway and serve it
// with the node's lifecycle, so scripts that parse "prefcoverd listening"
// work against both roles.
func runGateway(addr string, gf gatewayFlags, sloCfg slo.Config, maxBodyMB int64, shutdownGrace time.Duration, logger *slog.Logger) int {
	nodes := splitNodes(gf.nodes)
	if len(nodes) == 0 {
		logger.Error("-gateway requires -nodes host1:port,host2:port,...")
		return 1
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:          nodes,
		Replicas:       gf.replicas,
		VNodes:         gf.vnodes,
		Logger:         logger,
		ProbeInterval:  gf.probeInterval,
		ProbeTimeout:   gf.probeTimeout,
		RequestTimeout: gf.requestTimeout,
		MaxAttempts:    gf.maxAttempts,
		MaxBodyBytes:   maxBodyMB << 20,
		SLO:            sloCfg,
	})
	if err != nil {
		logger.Error("gateway construction failed", "error", err)
		return 1
	}
	defer gw.Close()
	return serve(addr, gw.Handler(), shutdownGrace, logger, "role", "gateway", "nodes", len(nodes))
}

// splitNodes parses the -nodes list: comma-separated, blanks ignored.
func splitNodes(raw string) []string {
	var out []string
	for _, tok := range strings.Split(raw, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
