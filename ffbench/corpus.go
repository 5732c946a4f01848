package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// docRand is the entropy behind one document: a pure function of the
// benchmark seed and the document index, so document i is the same
// bytes whichever run, client or phase asks for it.
func docRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_000_017 + int64(i)))
}

// corners are the four discipline × feedback combinations of the
// paper, in the order documents cycle through them.
var corners = [4][2]string{
	{"fairshare", "individual"},
	{"fifo", "individual"},
	{"fairshare", "aggregate"},
	{"fifo", "aggregate"},
}

// Connection-count ladders of the heterogeneous documents. Individual
// feedback needs a number of steps that grows with the population
// (each connection's own signal responds to its rate as 1/n), and a
// step costs O(n), so those corners stop at 96 connections, keeping
// every solve within the 5–100 ms the workload aims for and the mean
// near 8 ms; the aggregate corners, whose common-mode loop gain does
// not grow with n, climb to 512.
var (
	individualSizes = []int{64, 72, 80, 88, 96}
	aggregateSizes  = []int{64, 128, 192, 256, 320, 384, 448, 512}
)

// heteroDoc returns heterogeneous document i: one of the four corners
// (i mod 4), 2–6 gateways in a parking-lot or star topology, and a
// multiplicative law with a distinct gain η ∈ [1.2, 1.9) per
// connection, inside the paper's η < 2 unilateral-stability bound (by
// Theorem 4 systemic stability on Fair Share with individual
// feedback). Individual-feedback connections also get distinct target
// signals, so no two connections are interchangeable and the document
// has no class structure to collapse; aggregate feedback shares one
// signal per gateway, so its connections share the target 0.5, which
// is the only target a common signal can meet. The structure (corner,
// size, gateway count, topology kind) cycles with i; the seed draws
// capacities, latencies, routes, gains and targets.
func heteroDoc(seed int64, i int) []byte {
	rng := docRand(seed, 1, i)
	corner := corners[i%4]
	k := i / 4
	sizes := aggregateSizes
	if corner[1] == "individual" {
		sizes = individualSizes
	}
	n := sizes[k%len(sizes)]
	g := 2 + (k/len(sizes))%5
	star := (k/len(sizes)/5)%2 == 1

	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":"hetero-%d","discipline":%q,"feedback":%q,"gateways":[`, i, corner[0], corner[1])
	for a := 0; a < g; a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		mu := (1 + rng.Float64()) * float64(n) / float64(g)
		fmt.Fprintf(&b, `{"name":"g%d","mu":%.4f,"latency":%.3f}`, a, mu, 0.05+0.1*rng.Float64())
	}
	b.WriteString(`],"connections":[`)
	for c := 0; c < n; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		var path []int
		switch {
		case star:
			// Gateway 0 is the hub: leaf → hub, or leaf → hub → leaf.
			leaf := 1 + rng.Intn(g-1)
			path = []int{leaf, 0}
			if other := 1 + rng.Intn(g-1); other != leaf && rng.Intn(2) == 0 {
				path = append(path, other)
			}
		case c == 0:
			// The parking lot's long connection crosses every gateway.
			for a := 0; a < g; a++ {
				path = append(path, a)
			}
		default:
			lo := rng.Intn(g)
			hi := lo + rng.Intn(g-lo)
			for a := lo; a <= hi; a++ {
				path = append(path, a)
			}
		}
		b.WriteString(`{"path":[`)
		for j, a := range path {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"g%d"`, a)
		}
		// Stratified gains: connection c draws from its own 0.7/n slice
		// of [1.2, 1.9), so the gains are distinct by construction.
		eta := 1.2 + 0.7*(float64(c)+rng.Float64())/float64(n)
		bss := 0.5
		if corner[1] == "individual" {
			bss = 0.2 + 0.6*rng.Float64()
		}
		fmt.Fprintf(&b, `],"law":{"kind":"multiplicative","eta":%.9f,"bss":%.6f}}`, eta, bss)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// poolDoc returns homogeneous-population document i: 2–3 classes of
// identical sources (count=N entries) on a 2–3-gateway parking lot.
// Even documents are discrete-sized, N = 2⁴–2⁸ for the first class
// and 2⁴–2⁶ for the others (at most 384 sources, so a solve stays
// well under the gateway's 100 ms hedge delay); odd documents are
// fluid-sized, N = 2¹⁶–2²³ per class, which ffcd's auto backend
// solves class-collapsed. Fluid-sized documents cycle through all four
// corners. Discrete-sized ones use aggregate feedback only: there a
// population's loop gain is η·ρ whatever its size, so a solve takes
// tens of steps, while identical sources under individual feedback
// converge in hundreds to a thousand steps and would brush the hedge
// delay. The structure — backend, corner, class and gateway counts,
// the population ladder — is a function of i alone, so the documents
// at each popularity rank cost the same whatever the seed; the seed
// draws capacities, latencies, routes, gains and targets.
func poolDoc(seed int64, i int) []byte {
	rng := docRand(seed, 2, i)
	fluidSized := i%2 == 1
	corner := corners[(i/2)%4]
	if !fluidSized {
		corner = corners[2+(i/2)%2]
	}
	classes := 2 + (i/8)%2
	g := 2 + (i/16)%2
	rung := i / 32

	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":"pool-%d","discipline":%q,"feedback":%q,"gateways":[`, i, corner[0], corner[1])
	for a := 0; a < g; a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"g%d","mu":%.4f,"latency":%.3f}`, a, 1+rng.Float64(), 0.05+0.1*rng.Float64())
	}
	b.WriteString(`],"connections":[`)
	for c := 0; c < classes; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		lo, hi := 0, g-1
		if c > 0 {
			lo = rng.Intn(g)
			hi = lo + rng.Intn(g-lo)
		}
		b.WriteString(`{"path":[`)
		for a := lo; a <= hi; a++ {
			if a > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"g%d"`, a)
		}
		var count int64
		switch {
		case fluidSized:
			count = 1 << (16 + (rung+3*c)%8)
		case c == 0:
			count = 1 << (4 + rung%5)
		default:
			count = 1 << (4 + (rung+c)%3)
		}
		eta := 0.8 + 0.8*rng.Float64()
		bss := 0.5
		if corner[1] == "individual" {
			bss = 0.2 + 0.6*rng.Float64()
		}
		fmt.Fprintf(&b, `],"count":%d,"law":{"kind":"multiplicative","eta":%.6f,"bss":%.4f}}`, count, eta, bss)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}
