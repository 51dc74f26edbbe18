// Command benchmark is the repository's one canonical benchmark: five
// closed-loop workloads against an in-process Mantle deployment, five
// gated end-to-end metrics, a per-layer tier of probes and run counters,
// and a traced pass whose span self-times sum to the op time. See
// README.md in this directory.
//
// The driver runs one workload at a time:
//
//	bash benchmark/run.sh --workload stat_hot --seed 1 --seconds 15 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// -trace every workload runs untraced and traced, the layer probes run
// once, and -out receives the full report that -compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// canonicalSlices is how many slices -seconds is divided into.
const canonicalSlices = 5

// report is the -out file.
type report struct {
	Seed         uint64            `json:"seed"`
	Go           string            `json:"go"`
	NumCPU       int               `json:"num_cpu"`
	SliceSeconds float64           `json:"slice_seconds"`
	Slices       int               `json:"slices"`
	Workloads    []*workloadResult `json:"workloads"`
	Probes       map[string]stat   `json:"probes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names      = fs.String("workload", "all", "workload to run, a comma-separated list, or all")
		seed       = fs.Uint64("seed", 1, "seed every generated request derives from")
		seconds    = fs.Int("seconds", runSeconds, "measured seconds per workload, split into 5 slices")
		traceMode  = fs.Int("trace", -1, "0: untraced slices only; 1: two untraced slices, the traced slice and the probes; unset: all of it")
		slice      = fs.Duration("slice", 0, "slice length (overrides -seconds)")
		slices     = fs.Int("slices", 0, "untraced slices per workload (default 5, or 2 with -trace 1)")
		entries    = fs.Int("entries", 1_000_000, "stat_wide namespace size")
		clients    = fs.Int("clients", 0, "closed-loop clients per workload (default: nproc - 1, at least 1; 8 on write_durable)")
		probeScale = fs.Int("probe-scale", 1, "divide probe iteration counts by this (smoke runs)")
		out        = fs.String("out", "", "write the full report as JSON to this file")
		traceOut   = fs.String("trace-out", "", "write the sampled span trees of the traced pass to this file")
		workdir    = fs.String("workdir", ".bench_build", "directory for build outputs (the mantled binary of the gateway probe)")
		spec       = fs.Bool("spec", false, "print BENCHMARK.json as generated from spec.go and exit")
		compare    = fs.Bool("compare", false, "compare two -out reports: benchmark -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		b, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	o := options{
		seed: *seed, slice: *slice, slices: *slices,
		entries: *entries, traced: *traceMode != 0, nproc: runtime.NumCPU(), clients: *clients, probeScale: *probeScale,
	}
	if o.slice == 0 {
		o.slice = time.Duration(*seconds) * time.Second / canonicalSlices
	}
	if o.slices == 0 {
		o.slices = canonicalSlices
		if *traceMode == 1 {
			o.slices = 2
		}
	}
	// The hot namespaces are warm after a few thousand ops; stat_wide's
	// million entries are not warm after any affordable time.
	o.warmup = min(o.slice/6, time.Second)
	runtime.GOMAXPROCS(o.nproc)

	var selected []*workloadDef
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			for i := range workloads {
				selected = append(selected, &workloads[i])
			}
			continue
		}
		wl, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = append(selected, wl)
	}
	if *traceMode >= 0 && len(selected) != 1 {
		fmt.Fprintln(os.Stderr, "-trace 0|1 runs exactly one -workload")
		return 2
	}

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	rep := &report{Seed: o.seed, Go: runtime.Version(), NumCPU: o.nproc, SliceSeconds: o.slice.Seconds(), Slices: o.slices}
	ok := true
	var trees []sampledTree
	for _, wl := range selected {
		res, err := runWorkload(wl, o, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
		trees = append(trees, res.trees...)
		for _, e := range res.Errors {
			logf("%s: INCORRECT: %s", wl.name, e)
		}
		ok = ok && res.Correct
	}
	if o.traced {
		rep.Probes = runProbes(o.probeScale, *workdir, logf)
	}

	printReport(rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if o.traced {
		path := *traceOut
		if path == "" && *traceMode == 1 {
			path = filepath.Join(*workdir, "trace-"+selected[0].name+".json")
		}
		if path != "" {
			if err := writeTrees(path, trees); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}
	if *traceMode >= 0 {
		printDriverLine(rep, *traceMode == 1)
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerMetrics merges a workload's run counters with the probes: the
// full per-layer tier for that workload.
func layerMetrics(res *workloadResult, probes map[string]stat) map[string]stat {
	out := make(map[string]stat, len(perLayer))
	for k, v := range probes {
		out[k] = v
	}
	for k, v := range res.PerLayer { // host.calib_us: the per-slice reading wins
		out[k] = v
	}
	return out
}

// printReport prints every metric by name with its unit.
func printReport(rep *report) {
	for _, res := range rep.Workloads {
		fmt.Printf("\n== %s  (%d clients, %d entries, %d ops attempted, %d failed, correct=%v)\n",
			res.Name, res.Clients, res.Entries, res.Attempted, res.Failed, res.Correct)
		for _, m := range endToEnd {
			st := res.EndToEnd[m.Name]
			fmt.Printf("  %-30s %14.4f %-9s [min %.4f  max %.4f  n=%d]\n", m.Name, st.Value, st.Unit, st.Min, st.Max, len(st.Values))
		}
		printLayers(res.PerLayer)
	}
	if len(rep.Probes) > 0 {
		fmt.Printf("\n== probes\n")
		printLayers(rep.Probes)
	}
}

func printLayers(m map[string]stat) {
	for _, spec := range perLayer {
		st, ok := m[spec.Name]
		switch {
		case !ok:
		case st.Skipped != "":
			fmt.Printf("  %-30s %14s %-9s skipped: %s\n", spec.Name, "-", st.Unit, st.Skipped)
		case st.Samples > 0:
			fmt.Printf("  %-30s %14.4f %-9s [%d samples]\n", spec.Name, st.Value, st.Unit, st.Samples)
		default:
			fmt.Printf("  %-30s %14.4f %-9s\n", spec.Name, st.Value, st.Unit)
		}
	}
}

// printDriverLine prints the one-line result the driver reads: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.
func printDriverLine(rep *report, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := rep.Workloads[0]
	src, specs := res.EndToEnd, endToEnd
	if traced {
		src, specs = layerMetrics(res, rep.Probes), perLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		metrics[m.Name] = value{src[m.Name].Value, m.Unit}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only numbers, strings and bools: cannot fail
	}
	fmt.Println(string(b))
}
