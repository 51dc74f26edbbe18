package main

import (
	"strconv"
	"time"
)

// The host reference: a fixed single-goroutine kernel that is timed
// after every measured window, so that a run knows how fast the host was
// over the very seconds it measured.
//
// The 2-vCPU reference VM shares a physical core with other tenants.
// Their bursts do not show as steal time and do not slow a dependent
// multiply chain (host.calib_us moves 1-3%), but they slow code that
// keeps the core's ports busy — Go map lookups, string hashing, copying:
// the program under test — by 10-40% for tens of seconds at a time. The
// kernel below is such code with nothing else in it, so over a run its
// time rises and falls with a CPU-bound workload's (r = -0.9 to -1.0
// over 10-20 s), about twice as far: half of an op's time is stalls that
// a busy neighbour does not lengthen. Hence hostFactor.
//
// The kernel allocates nothing (the collector's share of a reference run
// would otherwise depend on the heap the workload built) and its working
// set fits the L1 cache (so it says nothing about the workload's misses).
type hostRef struct {
	keys []string
	m    map[string]*refRow
	buf  [64]byte
	rng  uint32
}

type refRow struct {
	hash  uint64
	hits  int64
	bytes int64
}

const (
	refKeys  = 512
	refIters = 100_000
	// refNominalMs is what one run of the kernel takes on the reference
	// VM when its neighbours are quiet. Scaled numbers are what the
	// workload would have measured on a host of exactly this speed, so on
	// that VM, when quiet, they equal the raw ones.
	refNominalMs = 4.4
	// refShare is the share of a CPU-bound op's time that lengthens in
	// proportion to the reference; the rest is taken as fixed. Fitted
	// once over 150 s dumps of stat_hot, churn_mixed and tcp_front: 0.5
	// left the least spread in throughput (best 0.55) and in the median
	// latency (best 0.45).
	refShare = 0.5
)

func newHostRef() *hostRef {
	h := &hostRef{keys: make([]string, refKeys), m: make(map[string]*refRow, refKeys), rng: 1}
	for i := range h.keys {
		// The same shape as the paths the workloads resolve.
		k := "/t1/t2/t3/t4/t5/t6/t7/t8/g" + strconv.Itoa(i%8) + "/d" + strconv.Itoa(i%64) + "/o" + strconv.Itoa(i)
		h.keys[i] = k
		h.m[k] = &refRow{}
	}
	return h
}

// run executes the kernel once and returns how long it took, in ms.
func (h *hostRef) run() float64 {
	t0 := time.Now()
	r := h.rng
	var sum uint64
	for i := 0; i < refIters; i++ {
		r = r*1664525 + 1013904223
		k := h.keys[(r>>8)%refKeys]
		row := h.m[k]
		row.hash = pathHash(k)
		row.hits++
		row.bytes += int64(copy(h.buf[:], k))
		sum += row.hash
	}
	h.rng = r
	calibSink += sum
	return float64(time.Since(t0)) / 1e6
}

// hostFactor is how much longer a CPU-bound op took than it would have
// on the quiet reference host, given the reference time of the same
// seconds: throughput is multiplied by it, latency divided.
func hostFactor(refMs float64) float64 {
	return 1 - refShare + refShare*refMs/refNominalMs
}
