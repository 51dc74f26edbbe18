// Command mdtest is an mdtest-style metadata benchmark CLI, mirroring
// how the paper drives its evaluation (§6.1): pick a system, an
// operation, a concurrency, and a conflict mode; it populates a
// namespace, runs the workload, and prints throughput, latency
// percentiles, and the per-phase breakdown.
//
// Usage:
//
//	mdtest -system mantle -op mkdir -conflict shared -clients 256 -per 50
//
// Systems: mantle, tectonic, infinifs, locofs, dbtable (the legacy
// distributed-transaction DBtable service).
// Ops: lookup, create, delete, objstat, dirstat, mkdir, rmdir, dirrename.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mantle/internal/bench"
	"mantle/internal/experiments"
	"mantle/internal/netsim"
	"mantle/internal/trace"
	"mantle/internal/types"
	"mantle/internal/workload"
)

func main() {
	var (
		system   = flag.String("system", "mantle", "metadata system under test")
		op       = flag.String("op", "objstat", "operation to benchmark")
		conflict = flag.String("conflict", "exclusive", "exclusive|shared directory placement")
		clients  = flag.Int("clients", 256, "client concurrency")
		per      = flag.Int("per", 50, "operations per client")
		objects  = flag.Int("objects", 40, "pre-populated objects per client")
		entries  = flag.Int("entries", 0, "populate a flat bulk-loaded namespace of this many entries instead of the mdtest tree (objstat/lookup only; try 10000000)")
		depth    = flag.Int("depth", 10, "working directory depth")
		rtt      = flag.Duration("rtt", 200*time.Microsecond, "simulated per-RPC round trip")
		skew     = flag.Float64("skew", 0, "Zipf skew for lookup/objstat traffic (0 = uniform; try 1.2)")
		hotspot  = flag.Bool("hotspot", false, "enable elastic hotspot management (mantle only)")
		dumpM    = flag.Bool("dump-metrics", false, "print the system's metrics registry and fabric edge stats after the run")
		doTrace  = flag.Bool("trace", false, "run one traced lookup after the benchmark and print its span tree")
		heatRep  = flag.Bool("heat-report", false, "print the system's heat-plane report after the run (mantle only)")
	)
	flag.Parse()

	p := experiments.Params{
		RTT: *rtt, Clients: *clients, PerClient: *per,
		ObjectsPerClient: *objects, Depth: *depth,
	}.WithDefaults()

	opts := experiments.SystemOpts{}
	if *system == "mantle" {
		opts = experiments.DefaultMantleOpts()
		opts.MantleHotspot = *hotspot
		if *hotspot && opts.MantleLearners == 0 {
			// Hot-set replication needs read replicas to spread onto.
			opts.MantleLearners = 2
		}
	}
	if *entries > 0 {
		// The flatness-sweep population: a flat bulk-loaded namespace of
		// -entries total entries, lean enough to reach 10M+ on one machine.
		if *op != "objstat" && *op != "lookup" {
			fatal(fmt.Errorf("-entries supports only -op objstat or lookup (got %q)", *op))
		}
		fabric := netsim.NewFabric(netsim.Config{RTT: p.RTT})
		s, err := experiments.NewSystem(*system, fabric, opts)
		if err != nil {
			fatal(err)
		}
		defer s.Stop()
		sn := workload.BuildScale(*entries)
		heap0 := bench.Heap()
		popStart := time.Now()
		if err := sn.Populate(s); err != nil {
			fatal(err)
		}
		grown := bench.Heap().Sub(heap0)
		fmt.Printf("populated %d entries in %v (%.0f resident bytes/entry)\n",
			sn.Entries(), time.Since(popStart).Round(time.Millisecond),
			float64(grown.HeapAlloc)/float64(sn.Entries()))
		fn := sn.StatOp(s)
		if *op == "lookup" {
			fn = sn.LookupOp(s)
		}
		_ = bench.RunN(p.Clients, 2, fn) // warm round
		res := bench.RunN(p.Clients, p.PerClient, fn)
		printRun(*system, *op, "-scale", p, res)
		return
	}

	s, ns, err := experiments.BuildPopulated(*system, p, opts)
	if err != nil {
		fatal(err)
	}
	defer s.Stop()

	shared := *conflict == "shared"
	var fn bench.OpFunc
	switch *op {
	case "lookup":
		if *skew > 0 {
			fn = workload.ZipfLookupOp(s, ns, p.Clients, *skew, 1)
		} else {
			fn = workload.LookupOp(s, ns)
		}
	case "create":
		fn = workload.CreateOp(s, ns, "cli")
	case "delete":
		pre := bench.RunN(p.Clients, p.PerClient, workload.CreateOp(s, ns, "cli"))
		if pre.Errors > 0 {
			fatal(fmt.Errorf("pre-create for delete: %d errors", pre.Errors))
		}
		fn = workload.DeleteOp(s, ns, "cli")
	case "objstat":
		if *skew > 0 {
			fn = workload.ZipfObjStatOp(s, ns, p.Clients, *skew, 1)
		} else {
			fn = workload.ObjStatOp(s, ns)
		}
	case "dirstat":
		fn = workload.DirStatOp(s, ns)
	case "mkdir":
		if shared {
			fn = workload.MkdirSOp(s, ns, "cli")
		} else {
			fn = workload.MkdirEOp(s, ns, "cli")
		}
	case "rmdir":
		var mk bench.OpFunc
		if shared {
			mk = workload.MkdirSOp(s, ns, "cli")
		} else {
			mk = workload.MkdirEOp(s, ns, "cli")
		}
		pre := bench.RunN(p.Clients, p.PerClient, mk)
		if pre.Errors > 0 {
			fatal(fmt.Errorf("pre-mkdir for rmdir: %d errors", pre.Errors))
		}
		fn = workload.RmdirEOp(s, ns, "cli") // rmdir targets are the created dirs
		if shared {
			fatal(fmt.Errorf("rmdir -conflict shared is not supported (paper omits rmdir-s)"))
		}
	case "dirrename":
		if err := workload.PrepareRenamePingPong(s, ns, p.Clients, "cli"); err != nil {
			fatal(err)
		}
		if shared {
			fn = workload.RenameSOp(s, ns, "cli")
		} else {
			fn = workload.RenameEOp(s, ns, "cli")
		}
	default:
		fatal(fmt.Errorf("unknown op %q", *op))
	}

	res := bench.RunN(p.Clients, p.PerClient, fn)
	mode := "-e"
	if shared {
		mode = "-s"
	}
	printRun(*system, *op, mode, p, res)

	if *doTrace {
		// One traced lookup of a worker's working-directory path shows
		// where an operation of this benchmark's namespace spends its
		// round trips, stage by stage.
		path := ns.WorkDirs[0]
		tr, ctx := trace.New("lookup " + path)
		if _, err := s.Lookup(s.Caller().BeginTraced(ctx), path); err != nil {
			fatal(err)
		}
		tr.Finish()
		fmt.Printf("\ntrace of one lookup (%d trips, %d bytes):\n", tr.Trips(), tr.Bytes())
		tr.WriteTree(os.Stdout)
	}
	if *dumpM {
		fmt.Println("\nmetrics:")
		experiments.DumpSystem(os.Stdout, *system, s)
	}
	if *heatRep {
		if hr, ok := s.(interface{ WriteStatus(io.Writer) }); ok {
			fmt.Println("\nheat report:")
			hr.WriteStatus(os.Stdout)
		} else {
			fmt.Fprintf(os.Stderr, "mdtest: -heat-report: %s exposes no heat plane\n", *system)
		}
	}
}

func printRun(system, op, mode string, p experiments.Params, res bench.RunResult) {
	fmt.Printf("%s %s%s: %d clients x %d ops, wall %v\n",
		system, op, mode, p.Clients, p.PerClient, res.Wall.Round(time.Millisecond))
	fmt.Printf("  throughput : %s (%d ops, %d errors, %d retries)\n",
		bench.Kops(res.Throughput), res.Ops, res.Errors, res.Retries)
	fmt.Printf("  latency    : mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		res.Latency.Mean().Round(time.Microsecond),
		res.Latency.Quantile(0.5).Round(time.Microsecond),
		res.Latency.Quantile(0.95).Round(time.Microsecond),
		res.Latency.Quantile(0.99).Round(time.Microsecond),
		res.Latency.Max().Round(time.Microsecond))
	fmt.Printf("  breakdown  : lookup %v  loopdetect %v  execute %v\n",
		res.MeanPhase(types.PhaseLookup).Round(time.Microsecond),
		res.MeanPhase(types.PhaseLoopDetect).Round(time.Microsecond),
		res.MeanPhase(types.PhaseExecute).Round(time.Microsecond))
	fmt.Printf("  RPCs/op    : %.1f\n", res.MeanRTTs())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdtest:", err)
	os.Exit(1)
}
