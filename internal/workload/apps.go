package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/api"
	"mantle/internal/dataservice"
	"mantle/internal/metrics"
)

// AppReport is the outcome of one application run: job completion time
// plus per-operation latency histograms (the Figure 11 CDFs).
type AppReport struct {
	Completion time.Duration
	Ops        map[string]*metrics.Latency
	Errors     int64
}

// appRecorder collects latencies concurrently: the op set is fixed at
// construction, so workers only read the map and observe lock-free.
type appRecorder struct {
	rep  *AppReport
	errs atomic.Int64
}

func newRecorder(ops ...string) *appRecorder {
	rep := &AppReport{Ops: make(map[string]*metrics.Latency, len(ops))}
	for _, op := range ops {
		rep.Ops[op] = &metrics.Latency{}
	}
	return &appRecorder{rep: rep}
}

func (a *appRecorder) time(op string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	if err != nil {
		a.errs.Add(1)
	} else {
		a.rep.Ops[op].Observe(time.Since(t0))
	}
	return err
}

// report closes the run that began at start.
func (a *appRecorder) report(start time.Time) *AppReport {
	a.rep.Completion = time.Since(start)
	a.rep.Errors = a.errs.Load()
	return a.rep
}

// AnalyticsConfig parameterises the Spark-style interactive analytics
// workload (§6.2): queries whose subtasks write temporary directories
// and atomically rename them into a shared per-query output directory —
// the commit pattern that concentrates directory-attribute updates.
type AnalyticsConfig struct {
	// Queries and TasksPerQuery shape the job (paper: hundreds of
	// subtasks per query).
	Queries       int
	TasksPerQuery int
	// ObjectsPerTask output objects are written per task.
	ObjectsPerTask int
	// ObjectSize in bytes (the job totals 10 GB in the paper; scaled).
	ObjectSize int64
	// Workers is the concurrent task executor count.
	Workers int
	// Data, when non-nil, enables data access (Figure 10b).
	Data *dataservice.Service
}

func (c AnalyticsConfig) withDefaults() AnalyticsConfig {
	if c.Queries <= 0 {
		c.Queries = 2
	}
	if c.TasksPerQuery <= 0 {
		c.TasksPerQuery = 64
	}
	if c.ObjectsPerTask <= 0 {
		c.ObjectsPerTask = 4
	}
	if c.ObjectSize <= 0 {
		c.ObjectSize = 256 << 10
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	return c
}

// RunAnalytics executes the Analytics workload against s and reports
// completion time and op latency distributions.
func RunAnalytics(s api.Service, cfg AnalyticsConfig) (*AppReport, error) {
	cfg = cfg.withDefaults()
	rec := newRecorder("mkdir", "create", "dirrename")

	// Setup (untimed): the job's directory skeleton.
	setup := []string{"/analytics", "/analytics/tmp", "/analytics/out"}
	for q := 0; q < cfg.Queries; q++ {
		setup = append(setup, fmt.Sprintf("/analytics/out/q%d", q))
	}
	for _, p := range setup {
		if _, err := s.Mkdir(s.Caller().Begin(), p); err != nil {
			return nil, fmt.Errorf("analytics setup %s: %w", p, err)
		}
	}

	type task struct{ q, t int }
	tasks := make(chan task, cfg.Queries*cfg.TasksPerQuery)
	for q := 0; q < cfg.Queries; q++ {
		for t := 0; t < cfg.TasksPerQuery; t++ {
			tasks <- task{q, t}
		}
	}
	close(tasks)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				tmp := fmt.Sprintf("/analytics/tmp/q%d-t%d", tk.q, tk.t)
				if err := rec.time("mkdir", func() error {
					_, err := s.Mkdir(s.Caller().Begin(), tmp)
					return err
				}); err != nil {
					continue
				}
				for i := 0; i < cfg.ObjectsPerTask; i++ {
					obj := fmt.Sprintf("%s/part-%d", tmp, i)
					_ = rec.time("create", func() error {
						_, err := s.Create(s.Caller().Begin(), obj, cfg.ObjectSize)
						return err
					})
					if cfg.Data != nil {
						cfg.Data.Put(cfg.ObjectSize)
					}
				}
				// Commit: atomic rename into the shared output dir.
				dst := fmt.Sprintf("/analytics/out/q%d/task-%d", tk.q, tk.t)
				_ = rec.time("dirrename", func() error {
					_, err := s.DirRename(s.Caller().Begin(), tmp, dst)
					return err
				})
			}
		}()
	}
	wg.Wait()
	return rec.report(start), nil
}

// AudioConfig parameterises the AI audio pre-processing workload (§6.2):
// tasks scan long audio inputs stored as objects on deep paths and write
// second-long segment objects — lookup- and create-heavy, conflict-free.
type AudioConfig struct {
	// Inputs is the number of input audio objects.
	Inputs int
	// SegmentsPerInput output segments are produced per input.
	SegmentsPerInput int
	// InputSize / SegmentSize in bytes (the job totals 200 GB in the
	// paper; scaled).
	InputSize   int64
	SegmentSize int64
	// Workers is the concurrent task executor count.
	Workers int
	// Data, when non-nil, enables data access.
	Data *dataservice.Service
	// Namespace supplies the populated input objects (one WorkDir per
	// worker is used for outputs).
	Namespace *Namespace
}

func (c AudioConfig) withDefaults() AudioConfig {
	if c.Inputs <= 0 {
		c.Inputs = 256
	}
	if c.SegmentsPerInput <= 0 {
		c.SegmentsPerInput = 8
	}
	if c.InputSize <= 0 {
		c.InputSize = 4 << 20
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 256 << 10
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	return c
}

// RunAudio executes the Audio workload: each task objstats its input on
// a deep path (plus a data GET when enabled), then creates segment
// objects in a private output directory.
func RunAudio(s api.Service, cfg AudioConfig) (*AppReport, error) {
	cfg = cfg.withDefaults()
	ns := cfg.Namespace
	if ns == nil {
		return nil, fmt.Errorf("audio: namespace with populated inputs required")
	}
	rec := newRecorder("objstat", "create")

	// Setup (untimed): per-worker output dirs under the working dirs.
	outDirs := make([]string, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		outDirs[w] = fmt.Sprintf("%s/audio-out-%d", ns.work(w), w)
		if _, err := s.Mkdir(s.Caller().Begin(), outDirs[w]); err != nil {
			return nil, fmt.Errorf("audio setup: %w", err)
		}
	}

	inputs := make(chan int, cfg.Inputs)
	for i := 0; i < cfg.Inputs; i++ {
		inputs <- i
	}
	close(inputs)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range inputs {
				paths := ns.ObjectPaths[i%len(ns.ObjectPaths)]
				in := paths[i%len(paths)]
				var size int64
				if err := rec.time("objstat", func() error {
					res, err := s.ObjStat(s.Caller().Begin(), in)
					size = res.Entry.Attr.Size
					return err
				}); err != nil {
					continue
				}
				if cfg.Data != nil {
					if size <= 0 {
						size = cfg.InputSize
					}
					cfg.Data.Get(size)
				}
				for sgi := 0; sgi < cfg.SegmentsPerInput; sgi++ {
					seg := fmt.Sprintf("%s/seg-%d-%d", outDirs[w], i, sgi)
					_ = rec.time("create", func() error {
						_, err := s.Create(s.Caller().Begin(), seg, cfg.SegmentSize)
						return err
					})
					if cfg.Data != nil {
						cfg.Data.Put(cfg.SegmentSize)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return rec.report(start), nil
}
