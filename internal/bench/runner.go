package bench

import (
	"sync"
	"sync/atomic"
	"time"

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
	Latency    *Histogram
	// PerPhase holds per-phase latency histograms (lookup / loopdetect /
	// execute), feeding the breakdown figures.
	PerPhase [types.NumPhases]*Histogram
	// Retries is the total transaction/lock retries across ops.
	Retries int64
	// RTTs is the total RPC round trips across ops.
	RTTs int64
}

// MeanPhase returns the mean latency of phase p across ops.
func (r RunResult) MeanPhase(p types.Phase) time.Duration {
	return r.PerPhase[p].Mean()
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
	res := RunResult{Workers: workers, Latency: &Histogram{}}
	for p := range res.PerPhase {
		res.PerPhase[p] = &Histogram{}
	}
	var mu sync.Mutex
	var ops, errs, retries, rtts atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := histPool.Get().(*Histogram)
			*lat = Histogram{}
			var phase [types.NumPhases]*Histogram
			for p := range phase {
				phase[p] = histPool.Get().(*Histogram)
				*phase[p] = Histogram{}
			}
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
				lat.Record(d)
				for p := 0; p < types.NumPhases; p++ {
					phase[p].Record(r.Phases[types.Phase(p)])
				}
			}
			mu.Lock()
			res.Latency.Merge(lat)
			for p := range phase {
				res.PerPhase[p].Merge(phase[p])
			}
			mu.Unlock()
			histPool.Put(lat)
			for p := range phase {
				histPool.Put(phase[p])
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Ops = ops.Load()
	res.Errors = errs.Load()
	res.Retries = retries.Load()
	res.RTTs = rtts.Load()
	if res.Wall > 0 {
		res.Throughput = float64(res.Ops) / res.Wall.Seconds()
	}
	return res
}
