package experiments

import (
	"fmt"
	"time"

	"mantle/internal/api"
	"mantle/internal/dataservice"
	"mantle/internal/metrics"
	"mantle/internal/workload"
)

// appScale derives the scaled application shapes from Params.
func appScale(p Params) (analytics workload.AnalyticsConfig, audio workload.AudioConfig) {
	tasks := p.Clients / 2
	if tasks < 8 {
		tasks = 8
	}
	analytics = workload.AnalyticsConfig{
		Queries:        2,
		TasksPerQuery:  tasks,
		ObjectsPerTask: 3,
		ObjectSize:     256 << 10,
		Workers:        p.Clients,
	}
	audio = workload.AudioConfig{
		Inputs:           p.Clients * 4,
		SegmentsPerInput: 6,
		InputSize:        4 << 20,
		SegmentSize:      256 << 10,
		Workers:          p.Clients,
	}
	return
}

// runApps executes both applications on the named system, optionally with
// data access, and fails if any of their operations failed.
func runApps(p Params, name string, opts SystemOpts, data bool) (an, au *workload.AppReport, err error) {
	ns := mdtestTree(p)
	err = withSystem(p, name, opts, ns.Populate, func(s api.Service) (err error) {
		anCfg, auCfg := appScale(p)
		if data {
			ds := dataservice.New(dataservice.Config{
				Fabric: s.Caller().Fabric(), Nodes: 8, Workers: 16,
				BaseCost: 400 * time.Microsecond, PerMB: 3 * time.Millisecond,
			})
			anCfg.Data = ds
			auCfg.Data = ds
		}
		auCfg.Namespace = ns
		if an, err = workload.RunAnalytics(s, anCfg); err != nil {
			return err
		}
		if au, err = workload.RunAudio(s, auCfg); err != nil {
			return err
		}
		if an.Errors > 0 || au.Errors > 0 {
			return fmt.Errorf("app errors: analytics %d, audio %d", an.Errors, au.Errors)
		}
		return nil
	})
	return an, au, err
}

// Fig10 reports application completion times, metadata-only (a) and with
// data access enabled (b) — paper Figure 10 — and, from the
// metadata-only runs, the latency CDFs of the applications'
// representative operations (paper Figure 11): mkdir and dirrename for
// Analytics, objstat and create for Audio.
func Fig10(p Params) ([]Row, error) {
	var rows []Row
	cdfOps := []string{"mkdir", "dirrename", "audio-objstat", "audio-create"}
	cdfs := make([][]Row, len(cdfOps)) // Figure 11 rows grouped by op
	for _, name := range Systems {
		for _, data := range []bool{false, true} {
			an, au, err := runApps(p, name, systemOpts(name), data)
			if err != nil {
				return nil, fmt.Errorf("%s (data=%v): %w", name, data, err)
			}
			mode := "(meta only)"
			if data {
				mode = "(+data)"
			}
			rows = append(rows,
				Row{"fig10", name, "analytics " + mode, micros(an.Completion), Micros},
				Row{"fig10", name, "audio " + mode, micros(au.Completion), Micros})
			if data {
				continue
			}
			for i, h := range []*metrics.Latency{an.Ops["mkdir"], an.Ops["dirrename"], au.Ops["objstat"], au.Ops["create"]} {
				cdfs[i] = append(cdfs[i], quantiles("fig11", cdfOps[i]+" "+name, h)...)
			}
		}
	}
	for _, c := range cdfs {
		rows = append(rows, c...)
	}
	return rows, nil
}

// Fig20 evaluates adding metadata caching (paper Figure 20): InfiniFS ±
// AM-Cache and Mantle (whose TopDirPathCache plays the same role — we
// contrast Mantle-base vs full Mantle) on both applications.
func Fig20(p Params) ([]Row, error) {
	configs := []struct {
		label string
		name  string
		opts  SystemOpts
	}{
		{"infinifs", "infinifs", SystemOpts{}},
		{"infinifs+cache", "infinifs", SystemOpts{InfiniFSAMCache: true}},
		{"mantle", "mantle", DefaultMantleOpts()},
		{"mantle+cache", "mantle", func() SystemOpts {
			o := DefaultMantleOpts()
			o.MantleProxyCache = true
			return o
		}()},
	}
	var rows []Row
	for _, c := range configs {
		an, au, err := runApps(p, c.name, c.opts, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		rows = append(rows,
			Row{"fig20", c.label, "analytics", micros(an.Completion), Micros},
			Row{"fig20", c.label, "audio", micros(au.Completion), Micros})
	}
	return rows, nil
}
