package cluster

import (
	"prefcover/internal/metrics"
)

// gwMetrics is the gateway's own metric surface: per-node RED (requests,
// errors, duration) for the forwarded traffic, ring/membership state, and
// the failure-handling counters the chaos suite reconciles against
// injected fault counts (nodeFailures == failovers + giveUps when every
// failure is transient).
type gwMetrics struct {
	// Per-node RED for forwarded requests: both count the attempts a node
	// answered in full, so a RED row's quantiles and request count cover
	// the same attempts (failed ones are in nodeFailures).
	requests *metrics.CounterVec   // prefcover_gateway_requests_total{node,endpoint,code}
	latency  *metrics.HistogramVec // prefcover_gateway_request_seconds{node,endpoint}

	// Failure accounting. nodeFailures counts every failed forward attempt
	// by node and kind (transport | status); failovers counts attempts
	// retried on another candidate; giveUps counts logical calls that
	// exhausted every candidate.
	nodeFailures *metrics.CounterVec // prefcover_gateway_node_failures_total{node,kind}
	failovers    *metrics.CounterVec // prefcover_gateway_failovers_total{endpoint}
	giveUps      *metrics.CounterVec // prefcover_gateway_giveups_total{endpoint}

	// Replication outcomes per secondary write: "stored" (PUT accepted),
	// "reconciled" (If-None-Match said the replica already holds the
	// bytes), "failed" (all attempts exhausted).
	replication *metrics.CounterVec // prefcover_gateway_replication_total{outcome}

	// Ring and health state.
	ringNodes   *metrics.GaugeVec   // prefcover_gateway_ring_nodes
	nodeHealthy *metrics.GaugeVec   // prefcover_gateway_node_healthy{node}
	probes      *metrics.CounterVec // prefcover_gateway_probes_total{node,outcome}

	// Routing decisions: how solves picked their node.
	routed *metrics.CounterVec // prefcover_gateway_routed_total{strategy}

	// Federation: node /metrics scrape outcomes and the cluster-level
	// SLO alert lifecycle (see internal/slo).
	scrapes *metrics.CounterVec // prefcover_gateway_scrapes_total{node,outcome}
	alerts  *metrics.GaugeVec   // ALERTS{alertname,endpoint,severity,state}
}

func newGwMetrics(r *metrics.Registry) *gwMetrics {
	return &gwMetrics{
		requests: r.NewCounter("prefcover_gateway_requests_total",
			"Requests forwarded to a node, by endpoint and response code.",
			"node", "endpoint", "code"),
		latency: r.NewHistogram("prefcover_gateway_request_seconds",
			"Forwarded-request latency by node and endpoint.",
			metrics.DefBuckets, "node", "endpoint"),
		nodeFailures: r.NewCounter("prefcover_gateway_node_failures_total",
			"Failed forward attempts by node and failure kind (transport/status).",
			"node", "kind"),
		failovers: r.NewCounter("prefcover_gateway_failovers_total",
			"Forward attempts retried on another replica, by endpoint.",
			"endpoint"),
		giveUps: r.NewCounter("prefcover_gateway_giveups_total",
			"Logical calls that exhausted every replica, by endpoint.",
			"endpoint"),
		replication: r.NewCounter("prefcover_gateway_replication_total",
			"Secondary-replica write outcomes (stored/reconciled/failed).",
			"outcome"),
		ringNodes: r.NewGauge("prefcover_gateway_ring_nodes",
			"Nodes currently on the hash ring (drained nodes excluded)."),
		nodeHealthy: r.NewGauge("prefcover_gateway_node_healthy",
			"1 while the node's last readiness probe succeeded.", "node"),
		probes: r.NewCounter("prefcover_gateway_probes_total",
			"Readiness probes by node and outcome (ready/unready/error).",
			"node", "outcome"),
		routed: r.NewCounter("prefcover_gateway_routed_total",
			"Solve routing decisions by strategy (sticky/least_loaded).",
			"strategy"),
		scrapes: r.NewCounter("prefcover_gateway_scrapes_total",
			"Node /metrics federation scrapes by node and outcome (ok/error).",
			"node", "outcome"),
		alerts: r.NewGauge("ALERTS",
			"Cluster SLO burn-rate alerts: 1 on the series matching each alert's current state.",
			"alertname", "endpoint", "severity", "state"),
	}
}
