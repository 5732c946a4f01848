package main

import (
	"math/rand"
)

// workload is one closed-loop traffic mix: the deployment it drives,
// the corpus it draws documents from, and the order its clients send
// them in.
type workload struct {
	Name string
	// Clients is the number of closed-loop client goroutines (at most
	// the machine's two vCPUs, so the clients never outnumber them).
	Clients int
	// Replicas is the number of ffcd instances; Gateway fronts them
	// with one ffcgw.
	Replicas int
	Gateway  bool
	// CacheEntries bounds each replica's result cache (0 keeps ffcd's
	// default of 1024 entries).
	CacheEntries int
	// Corpus is the number of documents the corpus digest covers.
	Corpus int
	// Doc is document i of the corpus for a seed. It is defined past
	// Corpus too: a run that outpaces the corpus keeps drawing from
	// the same pure function.
	Doc func(seed int64, i int) []byte
	// Distinct marks a workload that never sends a document twice:
	// each document is regenerated when sent instead of held (a
	// solve-hetero run sends thousands of up to 40 KB each), and no
	// bodies are kept to compare hits with.
	Distinct bool
	// Seq returns client c's request sequence. Warm lists the documents
	// sent during set-up; it may draw them from client 0's sequence,
	// which the timed run then continues.
	Seq  func(seed int64, c int) func() int
	Warm func(seq0 func() int) []int
	// Sample is how many corpus documents the traced run solves
	// in-process to time the scenario, core, queueing, signal and
	// fluid layers: documents j·SampleStride mod Corpus for j <
	// Sample.
	Sample, SampleStride int
}

const (
	heteroCorpus = 512
	hotCorpus    = 128
	poolCorpus   = 2048
	poolCache    = 96
	poolWarm     = 600
	poolZipfS    = 1.1
)

var workloads = []workload{
	{
		Name:     "solve-hetero",
		Clients:  1,
		Replicas: 1,
		Corpus:   heteroCorpus,
		Doc:      heteroDoc,
		Distinct: true,
		Seq: func(seed int64, c int) func() int {
			i := -1
			return func() int { i++; return i }
		},
		Warm: func(func() int) []int { return nil },
		// An odd stride walks the whole structure cycle of heteroDoc
		// (corner, size, gateway count, topology), as the timed
		// window does.
		Sample:       32,
		SampleStride: 13,
	},
	{
		Name:     "serve-hot",
		Clients:  2,
		Replicas: 1,
		Corpus:   hotCorpus,
		Doc:      heteroDoc,
		Seq: func(seed int64, c int) func() int {
			rng := rand.New(rand.NewSource(seed*31 + int64(c) + 1))
			return func() int { return rng.Intn(hotCorpus) }
		},
		Warm: func(func() int) []int {
			ids := make([]int, hotCorpus)
			for i := range ids {
				ids[i] = i
			}
			return ids
		},
		Sample:       32,
		SampleStride: 13,
	},
	{
		Name:         "pool-churn",
		Clients:      1,
		Replicas:     2,
		Gateway:      true,
		CacheEntries: poolCache,
		Corpus:       poolCorpus,
		Doc:          poolDoc,
		Seq:          poolSeq,
		Warm: func(seq0 func() int) []int {
			ids := make([]int, poolWarm)
			for i := range ids {
				ids[i] = seq0()
			}
			return ids
		},
		// Document r is popularity rank r, so the first documents
		// are the ones the traffic asks for most; 128 of them cover
		// poolDoc's whole structure cycle.
		Sample:       128,
		SampleStride: 1,
	},
}

// poolSeq is pool-churn's request order: zipf(s = 1.1) popularity,
// rank r being document r. The first poolWarm requests warm the
// caches during set-up and the timed run continues the same sequence,
// so the whole cache-operation sequence, and with it every hit and
// miss, is a function of the seed.
func poolSeq(seed int64, c int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed*37+int64(c)+3)), poolZipfS, 1, poolCorpus-1)
	return func() int { return int(z.Uint64()) }
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
