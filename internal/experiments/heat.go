package experiments

import (
	"fmt"

	"mantle/internal/bench"
	"mantle/internal/core"
	"mantle/internal/workload"
)

// Heat drives a Zipfian stat workload plus a shared-directory mkdir
// churn against Mantle and dumps the resulting heat plane: proxy and
// IndexNode heavy hitters, the per-shard load table, and the slow-op
// flight recorder. Not a paper figure — the operational view the
// cluster heat plane exists for. The full report goes to
// Params.HeatOut when set (the CI chaos lane uploads it as an
// artifact).
func Heat(p Params) ([]Row, error) {
	s, ns, err := BuildPopulated("mantle", p, DefaultMantleOpts())
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	m := s.(*core.Mantle)

	const skew = 1.3
	stat := bench.RunN(p.Clients, p.PerClient*4,
		workload.ZipfObjStatOp(s, ns, p.Clients, skew, 1))
	churn := bench.RunN(p.Clients, p.PerClient,
		workload.MkdirSOp(s, ns, "heat"))

	fmt.Fprintf(p.Out, "zipf objstat (s=%.1f): %d ops, %.0f op/s, p99 %v\n",
		skew, stat.Ops, stat.Throughput, stat.Latency.Quantile(0.99))
	fmt.Fprintf(p.Out, "mkdir-s churn: %d ops, %.0f op/s\n", churn.Ops, churn.Throughput)

	st := m.Status()
	if len(st.Proxy.HotDirs) > 0 {
		top := st.Proxy.HotDirs[0]
		fmt.Fprintf(p.Out, "hottest dir: %s (%d lookups, ±%d)\n", top.Key, top.Count, top.Err)
	}
	fmt.Fprintf(p.Out, "slow ops: %d sampled, %d captured\n",
		st.SlowOps.Sampled, st.SlowOps.Captured)

	if p.HeatOut != nil {
		m.WriteStatus(p.HeatOut)
	}
	return nil, nil
}
