// Package bench is the measurement harness for the evaluation: a
// fixed-work concurrent load runner (mdtest-style: N workers ×
// ops-per-worker) with per-phase latency aggregation over
// metrics.Latency histograms, and the aligned-table printer the
// experiment renderer uses.
package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/metrics"
	"mantle/internal/types"
)

// OpFunc performs one benchmark operation for the given worker and
// sequence number, returning the operation's measured result.
type OpFunc func(worker, seq int) (types.Result, error)

// RunResult aggregates one benchmark run.
type RunResult struct {
	Workers    int
	Ops        int64
	Errors     int64
	Wall       time.Duration
	Throughput float64 // successful ops per second
	Latency    *metrics.Latency
	// PerPhase is the time successful ops spent in each phase (lookup /
	// loopdetect / execute), summed — the breakdown figures report its
	// mean per op.
	PerPhase [types.NumPhases]time.Duration
	// Retries is the total transaction/lock retries across ops.
	Retries int64
	// RTTs is the total RPC round trips across ops.
	RTTs int64
}

// MeanPhase returns the mean latency of phase p across ops.
func (r RunResult) MeanPhase(p types.Phase) time.Duration {
	if r.Ops == 0 {
		return 0
	}
	return r.PerPhase[p] / time.Duration(r.Ops)
}

// MeanRTTs returns the average round trips per successful op.
func (r RunResult) MeanRTTs() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.RTTs) / float64(r.Ops)
}

// RunN drives fn with the given worker count, each performing perWorker
// sequential operations — the mdtest execution model (N ranks × items
// per rank). Latency is the op's own wall time; throughput is total
// successful ops over the run's wall time.
func RunN(workers, perWorker int, fn OpFunc) RunResult {
	res := RunResult{Workers: workers, Latency: &metrics.Latency{}}
	var ops, errs, retries, rtts atomic.Int64
	var phases [types.NumPhases]atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWorker; seq++ {
				t0 := time.Now()
				r, err := fn(w, seq)
				d := time.Since(t0)
				if err != nil {
					errs.Add(1)
					continue
				}
				ops.Add(1)
				retries.Add(int64(r.Retries))
				rtts.Add(int64(r.RTTs))
				res.Latency.Observe(d)
				for p := range phases {
					phases[p].Add(int64(r.Phases[p]))
				}
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Ops = ops.Load()
	res.Errors = errs.Load()
	res.Retries = retries.Load()
	res.RTTs = rtts.Load()
	for p := range phases {
		res.PerPhase[p] = time.Duration(phases[p].Load())
	}
	if res.Wall > 0 {
		res.Throughput = float64(res.Ops) / res.Wall.Seconds()
	}
	return res
}
