package experiments

import (
	"fmt"
	"time"

	"mantle/internal/bench"
	"mantle/internal/dataservice"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
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
// data access, returning the two reports.
func runApps(p Params, name string, opts SystemOpts, data bool) (*workload.AppReport, *workload.AppReport, error) {
	fabric := netsim.NewFabric(netsim.Config{RTT: p.RTT})
	s, err := NewSystem(name, fabric, opts)
	if err != nil {
		return nil, nil, err
	}
	defer s.Stop()
	ns := workload.Build(workload.TreeSpec{
		Clients: p.Clients, Depth: p.Depth, ObjectsPerClient: p.ObjectsPerClient,
	})
	if err := ns.Populate(s); err != nil {
		return nil, nil, err
	}
	anCfg, auCfg := appScale(p)
	if data {
		ds := dataservice.New(dataservice.Config{
			Fabric: fabric, Nodes: 8, Workers: 16,
			BaseCost: 400 * time.Microsecond, PerMB: 3 * time.Millisecond,
		})
		anCfg.Data = ds
		auCfg.Data = ds
	}
	auCfg.Namespace = ns
	an, err := workload.RunAnalytics(s, anCfg)
	if err != nil {
		return nil, nil, err
	}
	au, err := workload.RunAudio(s, auCfg)
	if err != nil {
		return nil, nil, err
	}
	return an, au, nil
}

// Fig10 reports application completion times, metadata-only (a) and with
// data access enabled (b) — paper Figure 10.
func Fig10(p Params) error {
	p = p.WithDefaults()
	type row struct{ analytics, audio [2]time.Duration }
	results := map[string]*row{}
	for _, name := range Systems {
		opts := SystemOpts{}
		if name == "mantle" {
			opts = DefaultMantleOpts()
		}
		r := &row{}
		for i, data := range []bool{false, true} {
			an, au, err := runApps(p, name, opts, data)
			if err != nil {
				return fmt.Errorf("%s (data=%v): %w", name, data, err)
			}
			if an.Errors > 0 || au.Errors > 0 {
				return fmt.Errorf("%s (data=%v): app errors an=%d au=%d", name, data, an.Errors, au.Errors)
			}
			r.analytics[i] = an.Completion
			r.audio[i] = au.Completion
		}
		results[name] = r
	}
	rows := [][]string{}
	for _, name := range Systems {
		r := results[name]
		rows = append(rows, []string{
			name,
			r.analytics[0].Round(time.Millisecond).String(),
			r.audio[0].Round(time.Millisecond).String(),
			r.analytics[1].Round(time.Millisecond).String(),
			r.audio[1].Round(time.Millisecond).String(),
		})
	}
	bench.Table(p.Out, "Figure 10: application completion time",
		[]string{"system", "analytics (meta only)", "audio (meta only)", "analytics (+data)", "audio (+data)"}, rows)
	return nil
}

// Fig11 reports the latency CDFs of the representative metadata
// operations in the two applications (paper Figure 11): mkdir and
// dirrename for Analytics, objstat and create for Audio.
func Fig11(p Params) error {
	p = p.WithDefaults()
	hists := map[string]map[string]*metrics.Latency{} // op -> system -> hist
	for _, name := range Systems {
		opts := SystemOpts{}
		if name == "mantle" {
			opts = DefaultMantleOpts()
		}
		an, au, err := runApps(p, name, opts, false)
		if err != nil {
			return err
		}
		for op, h := range an.Ops {
			if op == "mkdir" || op == "dirrename" {
				if hists[op] == nil {
					hists[op] = map[string]*metrics.Latency{}
				}
				hists[op][name] = h
			}
		}
		for op, h := range au.Ops {
			if op == "objstat" || op == "create" {
				key := "audio-" + op
				if hists[key] == nil {
					hists[key] = map[string]*metrics.Latency{}
				}
				hists[key][name] = h
			}
		}
	}
	for _, op := range []string{"mkdir", "dirrename", "audio-objstat", "audio-create"} {
		series := []bench.NamedHist{}
		for _, name := range Systems {
			if h, ok := hists[op][name]; ok {
				series = append(series, bench.NamedHist{Name: name, Hist: h})
			}
		}
		bench.CDFSummary(p.Out, fmt.Sprintf("Figure 11: latency CDF of %s", op), series)
	}
	return nil
}

// Fig20 evaluates adding metadata caching (paper Figure 20): InfiniFS ±
// AM-Cache and Mantle (whose TopDirPathCache plays the same role — we
// contrast Mantle-base vs full Mantle) on both applications.
func Fig20(p Params) error {
	p = p.WithDefaults()
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
	rows := [][]string{}
	for _, c := range configs {
		an, au, err := runApps(p, c.name, c.opts, false)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		rows = append(rows, []string{
			c.label,
			an.Completion.Round(time.Millisecond).String(),
			au.Completion.Round(time.Millisecond).String(),
		})
	}
	bench.Table(p.Out, "Figure 20: impact of adding metadata caching (completion time)",
		[]string{"config", "analytics", "audio"}, rows)
	return nil
}
