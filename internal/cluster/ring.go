// Package cluster turns N independent prefcoverd processes into one
// sharded serving system behind a routing gateway. Placement is by
// consistent hashing: every node contributes VNodes virtual points to a
// hash ring, graphs are placed on the first R distinct nodes clockwise
// from their key's hash, and the gateway replicates writes to all R,
// routes reads and solves to a replica with a warm solve cache (sticky
// by graph, least-loaded tiebreak from /readyz probes), and fails over
// between replicas through internal/retry when a node misbehaves. The
// gateway's two route maps, sticky routes by graph name and job owners by
// job ID, are internal/lru tables bounded at maxRoutes, and either route
// is recorded only from an answer below 400. Each node holds only its
// shard's graphs and caches — never the full inventory — which is what
// keeps per-node state small as the cluster grows (the hash-based
// placement discipline of succinct coverage oracles, applied to whole
// graphs instead of sketch cells).
//
// The hashing is deliberately boring and fully deterministic: SHA-256 of
// the key (the registry graph name — the identity the HTTP API routes
// on; the content hash stays the ETag/cache identity inside each node),
// and SHA-256 of "node\x00vnode-index" for ring points. Two gateways
// configured with the same node set compute identical placements with no
// coordination, so a fleet of gateways needs no shared state.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per physical node. 128 points
// keeps the expected load imbalance across a handful of nodes within a
// few percent while the ring stays small enough to rebuild on every
// membership change.
const DefaultVNodes = 128

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Safe for concurrent
// use; membership changes rebuild the (small) sorted point slice.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []ringPoint
}

// NewRing returns an empty ring; vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// VNodes reports the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// keyHash maps a placement key onto the ring: the first 8 bytes of its
// SHA-256, big-endian. The full digest is overkill for load balancing but
// guarantees the placement function never drifts between builds — the
// cross-process determinism the gateway fleet depends on.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// pointHash positions virtual node i of a member. The NUL separator keeps
// ("node1", 0) and ("node10", ...) from colliding textually.
func pointHash(node string, i int) uint64 {
	h := sha256.New()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(i)))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts node's virtual points; it reports whether the node was new.
func (r *Ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return false
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return true
}

// Remove drops node from the ring; it reports whether it was a member.
// Only ~1/N of keys remap: every other key's clockwise walk is unchanged.
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Contains reports ring membership.
func (r *Ring) Contains(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Nodes lists the members, sorted for deterministic output.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len is the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Lookup returns up to n distinct nodes for key, in ring order starting
// at the first point clockwise from the key's hash — replica placement.
// The walk skips points of nodes already chosen, so an R-replica set
// never lands two replicas on one node. Fewer than n members returns
// them all. The first returned node is the key's primary.
func (r *Ring) Lookup(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := keyHash(key)
	// First point with hash >= h, wrapping at the top of the ring.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Primary is Lookup(key, 1), or "" on an empty ring.
func (r *Ring) Primary(key string) string {
	nodes := r.Lookup(key, 1)
	if len(nodes) == 0 {
		return ""
	}
	return nodes[0]
}

// LoadShares estimates each member's share of primary placements by
// hashing samples synthetic keys around the ring — the balance figure
// statusz shows. samples <= 0 uses 1024.
func (r *Ring) LoadShares(samples int) map[string]float64 {
	if samples <= 0 {
		samples = 1024
	}
	counts := make(map[string]int)
	for i := 0; i < samples; i++ {
		if p := r.Primary("ring-share-sample-" + strconv.Itoa(i)); p != "" {
			counts[p]++
		}
	}
	out := make(map[string]float64, len(counts))
	for n, c := range counts {
		out[n] = float64(c) / float64(samples)
	}
	return out
}
