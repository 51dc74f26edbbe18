package experiments

import (
	"fmt"
	"sort"
	"time"
)

// Func runs one experiment on Params with its defaults filled and
// returns the measured rows. A driver may return the rows of several
// figures (Fig12 also measures Figure 13); one that only prints prose
// returns none.
type Func func(p Params) ([]Row, error)

// experiment is a registry entry: the driver that measures the figure
// and the heading its rows print under. A prose driver has no title.
type experiment struct {
	driver Func
	title  string
	label  string // heads the label column
}

// Registry maps experiment ids (paper table/figure numbers) to their
// drivers.
var Registry = map[string]experiment{
	"fig3":   {Fig3, "Figure 3: characteristics of five synthetic namespaces (scaled from the paper's billion-entry traces)", "namespace"},
	"fig4a":  {Fig4a, "Figure 4a: latency breakdown of the DBtable-based service (mean per op)", "op"},
	"fig4b":  {Fig4b, "Figure 4b: DBtable directory-update throughput under contention", "op"},
	"tab1":   {Table1, "Table 1: measured #RTTs per lookup at the working-directory depth (InfiniFS issues them in parallel; Mantle and LocoFS are single-RPC)", "system"},
	"tab2":   {Table2, "", ""},
	"fig10":  {Fig10, "Figure 10: application completion time", "system"},
	"fig11":  {Fig10, "Figure 11: latency CDFs of Analytics mkdir/dirrename and Audio objstat/create", "op system"},
	"fig12":  {Fig12, "Figure 12: throughput of object ops and directory read ops", "system"},
	"fig13":  {Fig12, "Figure 13: latency breakdown of object/directory read ops (mean per op)", "system op"},
	"fig14":  {Fig14, "Figure 14: throughput of directory modification ops", "system"},
	"fig15":  {Fig14, "Figure 15: latency breakdown of directory modification ops (mean per op)", "system op"},
	"fig16":  {Fig16, "Figure 16: effects of individual optimisations (normalised to Mantle-base)", "config"},
	"fig17":  {Fig17, "Figure 17: lookup latency vs path depth (and xN vs the shallowest depth)", "system"},
	"fig18":  {Fig18, "Figure 18: impact of k in TopDirPathCache (follower read off)", "config"},
	"fig19a": {Fig19a, "Figure 19a: throughput vs namespace size (fixed clients)", "namespace"},
	"fig19b": {Fig19b, "Figure 19b: scalability vs clients (create; objstat with follower/learner read)", "workload"},
	"fig20":  {Fig20, "Figure 20: impact of adding metadata caching (completion time)", "config"},
	"tab3":   {Table3, "Table 3: Cluster-C-like namespaces (scaled) with measured peak throughput on Mantle", "name"},
	"heat":   {Heat, "", ""},
	"scale":  {Scale, "Scale: objstat flatness vs namespace size (p99 normalised to the smallest)", "entries"},
	"dr":     {DR, "", ""},
}

// All returns the experiment ids in a stable order.
func All() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the given experiments (all when ids is empty) and prints
// each figure's rows. A figure whose rows an earlier driver of the same
// call already returned is printed without measuring again.
func Run(ids []string, p Params) error {
	if len(ids) == 0 {
		ids = All()
	}
	p = p.WithDefaults()
	measured := map[string][]Row{}
	for _, id := range ids {
		e, ok := Registry[id]
		if !ok {
			return fmt.Errorf("experiments: unknown id %q (known: %v)", id, All())
		}
		start := time.Now()
		fmt.Fprintf(p.Out, "\n######## %s ########\n", id)
		if _, done := measured[id]; !done {
			if err := measure(id, p, measured); err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
		}
		if e.title != "" {
			render(p.Out, e.title, e.label, measured[id])
		}
		fmt.Fprintf(p.Out, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// measure runs the driver of id and files the rows it returns by figure.
func measure(id string, p Params, into map[string][]Row) error {
	rows, err := Registry[id].driver(p)
	for _, r := range rows {
		into[r.Figure] = append(into[r.Figure], r)
	}
	return err
}
