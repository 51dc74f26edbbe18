package experiments

import (
	"fmt"
	"io"

	"mantle/internal/api"
	"mantle/internal/metrics"
)

// DumpSystem writes one system's observability evidence to w after a
// measurement: its metrics registry. Mantle's own carries every layer
// (latency_resolve / latency_txn_commit / latency_raft_propose
// histograms, the fabric's per-edge trips, per-node queue waits); a
// baseline gets a throwaway one on which its RPC caller and fabric
// register. Every figure regeneration run with Params.MetricsOut thus
// also emits tail-latency and trip-count evidence.
func DumpSystem(w io.Writer, name string, s api.Service) {
	fmt.Fprintf(w, "# system: %s\n", name)
	reg := metrics.NewRegistry()
	if m, ok := s.(interface{ Metrics() *metrics.Registry }); ok {
		reg = m.Metrics()
	} else {
		s.Caller().RegisterMetrics(reg)
		s.Caller().Fabric().RegisterMetrics(reg)
	}
	_ = reg.Write(w)
	fmt.Fprintln(w)
}
