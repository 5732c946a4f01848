// Package topology models the networks of Section 2.1 of the paper:
// communication lines connected by gateways, with one logical gateway
// per outgoing line (so gateways and lines are in one-to-one
// correspondence and all traffic on a line flows one way). Traffic is
// a static set of connections, each following a fixed route — an
// ordered list of gateways.
//
// A Network is immutable once built: construct it with a Builder, then
// query γ(i) (a connection's route) and Γ(a) (a gateway's connection
// set) freely. The immutability is what lets the flow-control iterator
// treat topology lookups as pure.
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Gateway describes one logical gateway: an exponential server of rate
// Mu with infinite buffers, followed by a line with fixed propagation
// Latency.
type Gateway struct {
	Name    string  // human-readable identifier
	Mu      float64 // service rate μ^a (packets per unit time), > 0
	Latency float64 // propagation delay l_a of the outgoing line, >= 0
}

// Network is an immutable network and traffic topology: the sets γ(i)
// and Γ(a) of the paper.
type Network struct {
	gateways []Gateway
	routes   [][]int // routes[i]: ordered gateway indices of connection i
	conns    [][]int // conns[a]: connection indices through gateway a
}

// Builder assembles a Network. The zero value is ready to use.
type Builder struct {
	gateways []Gateway
	routes   [][]int
	err      error
	// seen[a] is one more than the last connection that visited
	// gateway a: AddConnection's duplicate check, without a set per
	// connection.
	seen []int
}

// AddGateway appends a gateway and returns its index. Errors (e.g. a
// non-positive service rate) are deferred to Build so call sites can
// chain without per-call checks.
func (b *Builder) AddGateway(name string, mu, latency float64) int {
	idx := len(b.gateways)
	if b.err == nil {
		switch {
		case mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0):
			b.err = fmt.Errorf("topology: gateway %q has invalid service rate %v", name, mu)
		case latency < 0 || math.IsNaN(latency) || math.IsInf(latency, 0):
			b.err = fmt.Errorf("topology: gateway %q has invalid latency %v", name, latency)
		}
	}
	b.gateways = append(b.gateways, Gateway{Name: name, Mu: mu, Latency: latency})
	return idx
}

// AddConnection appends a connection routed through the given gateway
// indices, in order, and returns the connection index.
func (b *Builder) AddConnection(path ...int) int {
	idx := len(b.routes)
	if b.err == nil {
		if len(path) == 0 {
			b.err = fmt.Errorf("topology: connection %d has an empty route", idx)
		}
		if grow := len(b.gateways) - len(b.seen); grow > 0 {
			b.seen = append(b.seen, make([]int, grow)...)
		}
		for _, a := range path {
			if a < 0 || a >= len(b.gateways) {
				b.err = fmt.Errorf("topology: connection %d references unknown gateway %d", idx, a)
				break
			}
			if b.seen[a] == idx+1 {
				b.err = fmt.Errorf("topology: connection %d visits gateway %d twice", idx, a)
				break
			}
			b.seen[a] = idx + 1
		}
	}
	b.routes = append(b.routes, append([]int(nil), path...))
	return idx
}

// Build validates and returns the immutable Network. A network must
// have at least one gateway and one connection, and every gateway must
// carry at least one connection (an idle gateway is a modelling
// mistake in this steady-state setting).
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.gateways) == 0 {
		return nil, fmt.Errorf("topology: network has no gateways")
	}
	if len(b.routes) == 0 {
		return nil, fmt.Errorf("topology: network has no connections")
	}
	conns := make([][]int, len(b.gateways))
	for i, path := range b.routes {
		for _, a := range path {
			conns[a] = append(conns[a], i)
		}
	}
	for a, cs := range conns {
		if len(cs) == 0 {
			return nil, fmt.Errorf("topology: gateway %d (%s) carries no connections", a, b.gateways[a].Name)
		}
	}
	return &Network{
		gateways: append([]Gateway(nil), b.gateways...),
		routes:   b.routes,
		conns:    conns,
	}, nil
}

// NumGateways returns the number of logical gateways.
func (n *Network) NumGateways() int { return len(n.gateways) }

// NumConnections returns the number of connections.
func (n *Network) NumConnections() int { return len(n.routes) }

// Gateway returns gateway a's parameters.
func (n *Network) Gateway(a int) Gateway { return n.gateways[a] }

// Route returns γ(i), the ordered gateway indices of connection i.
// The returned slice is shared; callers must not modify it.
func (n *Network) Route(i int) []int { return n.routes[i] }

// Connections returns Γ(a), the connection indices flowing through
// gateway a, in ascending order. The returned slice is shared; callers
// must not modify it.
func (n *Network) Connections(a int) []int { return n.conns[a] }

// NumAt returns N^a, the number of connections through gateway a.
func (n *Network) NumAt(a int) int { return len(n.conns[a]) }

// PathLatency returns the total propagation latency along connection
// i's route.
func (n *Network) PathLatency(i int) float64 {
	var l float64
	for _, a := range n.routes[i] {
		l += n.gateways[a].Latency
	}
	return l
}

// ScaleServers returns a copy of the network with every service rate
// multiplied by c. Time-scale invariance (Theorem 1) predicts steady
// states scale linearly under this map.
func (n *Network) ScaleServers(c float64) (*Network, error) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("topology: invalid scale factor %v", c)
	}
	var b Builder
	for _, g := range n.gateways {
		b.AddGateway(g.Name, g.Mu*c, g.Latency)
	}
	for _, path := range n.routes {
		b.AddConnection(path...)
	}
	return b.Build()
}

// WithLatencies returns a copy of the network with per-gateway
// latencies replaced. len(lat) must equal NumGateways. Theorem 1
// predicts TSI steady states are invariant under this map.
func (n *Network) WithLatencies(lat []float64) (*Network, error) {
	if len(lat) != len(n.gateways) {
		return nil, fmt.Errorf("topology: %d latencies for %d gateways", len(lat), len(n.gateways))
	}
	var b Builder
	for a, g := range n.gateways {
		b.AddGateway(g.Name, g.Mu, lat[a])
	}
	for _, path := range n.routes {
		b.AddConnection(path...)
	}
	return b.Build()
}

// SingleGateway builds the paper's canonical example: n connections
// sharing one gateway of rate mu with line latency latency.
func SingleGateway(n int, mu, latency float64) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: need at least 1 connection, got %d", n)
	}
	var b Builder
	g := b.AddGateway("gw", mu, latency)
	for i := 0; i < n; i++ {
		b.AddConnection(g)
	}
	return b.Build()
}

// ParkingLot builds the classic multi-bottleneck "parking lot": hops
// gateways in a line, one long connection traversing all of them, and
// one short cross connection entering and leaving at each hop. All
// gateways share rate mu and latency latency. The long connection has
// index 0.
func ParkingLot(hops int, mu, latency float64) (*Network, error) {
	if hops <= 0 {
		return nil, fmt.Errorf("topology: need at least 1 hop, got %d", hops)
	}
	var b Builder
	gws := make([]int, hops)
	for h := 0; h < hops; h++ {
		gws[h] = b.AddGateway(fmt.Sprintf("gw%d", h), mu, latency)
	}
	b.AddConnection(gws...) // the long connection
	for h := 0; h < hops; h++ {
		b.AddConnection(gws[h]) // one short cross connection per hop
	}
	return b.Build()
}

// Star builds a star: leaves gateways all feeding a shared hub. Each
// of the leaves connections crosses its own leaf gateway then the hub,
// so the hub carries all traffic and is the natural bottleneck when
// hubMu < leafMu·leaves.
func Star(leaves int, leafMu, hubMu, latency float64) (*Network, error) {
	if leaves <= 0 {
		return nil, fmt.Errorf("topology: need at least 1 leaf, got %d", leaves)
	}
	var b Builder
	hub := b.AddGateway("hub", hubMu, latency)
	for l := 0; l < leaves; l++ {
		leaf := b.AddGateway(fmt.Sprintf("leaf%d", l), leafMu, latency)
		b.AddConnection(leaf, hub)
	}
	return b.Build()
}

// Random builds a random connected topology: nGateways gateways with
// service rates drawn uniformly from [muLo, muHi], and nConnections
// connections each crossing a random subset of 1..maxPath distinct
// gateways. Gateways left idle are re-assigned one connection so Build
// succeeds. Randomness comes from rng, so topologies are reproducible
// from a seed.
func Random(rng *rand.Rand, nGateways, nConnections, maxPath int, muLo, muHi, latency float64) (*Network, error) {
	if nGateways <= 0 || nConnections <= 0 {
		return nil, fmt.Errorf("topology: need positive counts, got %d gateways, %d connections", nGateways, nConnections)
	}
	if maxPath <= 0 || maxPath > nGateways {
		return nil, fmt.Errorf("topology: maxPath %d outside [1,%d]", maxPath, nGateways)
	}
	if !(muLo > 0) || muHi < muLo {
		return nil, fmt.Errorf("topology: invalid service-rate range [%v,%v]", muLo, muHi)
	}
	var b Builder
	gws := make([]int, nGateways)
	for a := 0; a < nGateways; a++ {
		mu := muLo + rng.Float64()*(muHi-muLo)
		gws[a] = b.AddGateway(fmt.Sprintf("g%d", a), mu, latency)
	}
	used := make([]bool, nGateways)
	paths := make([][]int, nConnections)
	for i := 0; i < nConnections; i++ {
		plen := 1 + rng.Intn(maxPath)
		perm := rng.Perm(nGateways)[:plen]
		paths[i] = perm
		for _, a := range perm {
			used[a] = true
		}
	}
	// Route one extra pass of each unused gateway through connection 0's
	// path tail, keeping every gateway loaded.
	for a, u := range used {
		if !u {
			paths[0] = append(paths[0], a)
		}
	}
	for _, p := range paths {
		b.AddConnection(p...)
	}
	return b.Build()
}
