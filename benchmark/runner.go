package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mantle"
	"mantle/internal/fsck"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// options shape one run; the defaults in main.go are the canonical run.
type options struct {
	seed       uint64
	slice      time.Duration // length of one measured slice
	slices     int           // untraced slices per workload
	warmup     time.Duration
	entries    int  // stat_wide namespace size
	traced     bool // add one traced slice and collect the run counters
	nproc      int
	clients    int // overrides the workload's client count when positive
	probeScale int // divides probe iteration counts (smoke runs)
}

// errWrong marks a reply that arrived but does not match what the
// benchmark wrote: it fails the run like any other error.
var errWrong = errors.New("wrong result")

// deployment is one workload's running system under test.
type deployment struct {
	wl      *workloadDef
	cl      *mantle.Cluster
	ns      *namespace
	clients []*client
	// mutations counts replicated directory mutations (see mutationBudget).
	mutations atomic.Int64

	// tcp_front only: the listener, the Serve goroutine's exit and one
	// connection per client.
	ln    net.Listener
	serve chan struct{}
	conns []*mantle.RemoteClient
}

// deploy builds the deployment and populates it; its wall time is one
// setup_s sample.
func deploy(wl *workloadDef, o options) (*deployment, error) {
	cl, err := mantle.New(wl.cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{wl: wl, cl: cl}
	if d.ns, err = wl.build(cl, o.entries); err != nil {
		d.close()
		return nil, fmt.Errorf("populate %s: %w", wl.name, err)
	}
	n := wl.clients(o.nproc)
	if o.clients > 0 {
		n = o.clients
	}
	for id := 0; id < n; id++ {
		c := newClient(o.seed, wl.name, id)
		if wl.private != nil {
			c.priv = wl.private(d.ns, id)
			if err := cl.Client().Mkdir(c.privatePath(false)); err != nil {
				d.close()
				return nil, err
			}
		}
		d.clients = append(d.clients, c)
	}
	if wl.tcp {
		if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			d.close()
			return nil, err
		}
		d.serve = make(chan struct{})
		go func() {
			defer close(d.serve)
			_ = mantle.Serve(d.ln, cl) // returns net.ErrClosed on close
		}()
		for range d.clients {
			rc, err := mantle.Dial(d.ln.Addr().String())
			if err != nil {
				d.close()
				return nil, err
			}
			d.conns = append(d.conns, rc)
		}
	}
	return d, nil
}

func (d *deployment) close() {
	for _, rc := range d.conns {
		_ = rc.Close()
	}
	if d.ln != nil {
		_ = d.ln.Close()
		<-d.serve
	}
	d.cl.Stop()
}

// checkObject verifies a returned object size against the path hash.
func (d *deployment) checkObject(h uint64, isDir bool, size int64) error {
	if isDir {
		return nil
	}
	want := d.ns.fixedSize
	if want == 0 {
		want = objectSize(h)
	}
	if size != want {
		return fmt.Errorf("%w: size %d, want %d", errWrong, size, want)
	}
	return nil
}

// issue performs one op and checks its reply. ctx carries the
// benchmark's root span on the traced pass and is nil otherwise.
func (d *deployment) issue(c *client, o *op, ctx context.Context) (types.Result, error) {
	if d.wl.tcp {
		return types.Result{}, d.issueRemote(d.conns[c.id], o)
	}
	m := d.cl.Core()
	rop := m.Caller().Begin()
	if ctx != nil {
		rop = m.Caller().BeginTraced(ctx)
	}
	switch o.kind {
	case opStat:
		res, err := m.ObjStat(rop, o.path)
		if err == nil {
			err = d.checkObject(pathHash(o.path), res.Entry.IsDir(), res.Entry.Attr.Size)
		}
		return res, err
	case opLookup:
		return m.Lookup(rop, o.path)
	case opList:
		res, entries, _, err := m.ReadDirPage(rop, o.path, "", listPage)
		if err == nil && len(entries) == 0 {
			err = fmt.Errorf("%w: empty listing", errWrong)
		}
		h := hashString(pathHash(o.path), "/")
		for i := 0; i < len(entries) && err == nil; i++ {
			e := &entries[i]
			err = d.checkObject(hashString(h, e.Name), e.IsDir(), e.Attr.Size)
		}
		return res, err
	case opCreate:
		return m.Create(rop, o.path, o.size)
	case opDelete:
		return m.Delete(rop, o.path)
	case opMkdir:
		return m.Mkdir(rop, o.path)
	default:
		return m.DirRename(rop, o.path, o.dst)
	}
}

func (d *deployment) issueRemote(rc *mantle.RemoteClient, o *op) error {
	switch o.kind {
	case opStat:
		inf, err := rc.Stat(o.path)
		if err == nil {
			err = d.checkObject(pathHash(inf.Path), inf.IsDir, inf.Size)
		}
		return err
	case opList:
		infos, _, err := rc.ListPage(o.path, "", listPage)
		if err == nil && len(infos) == 0 {
			err = fmt.Errorf("%w: empty listing", errWrong)
		}
		for i := 0; i < len(infos) && err == nil; i++ {
			err = d.checkObject(pathHash(infos[i].Path), infos[i].IsDir, infos[i].Size)
		}
		return err
	case opCreate:
		_, err := rc.Create(o.path, o.size)
		return err
	case opDelete:
		return rc.Delete(o.path)
	default:
		return fmt.Errorf("tcp_front does not issue op kind %d", o.kind)
	}
}

// samples are one client's latencies for one pass, per op class, in
// nanoseconds. The buffers are kept between passes so recording a
// sample does not allocate.
type samples [numClasses][]uint32

// tally is what a client counts during a pass, and what a pass sums
// over its clients.
type tally struct {
	attempted int64
	failed    int64
	errs      []string
	retries   int64
	lookupNs  int64
	execNs    int64
	spans     spanTotals
	trees     []sampledTree
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	t.retries += o.retries
	t.lookupNs += o.lookupNs
	t.execNs += o.execNs
	t.spans.add(&o.spans)
	t.trees = append(t.trees, o.trees...)
}

// usage is what a pass consumed, as deltas of process and deployment
// counters read around it.
type usage struct {
	cpu                   time.Duration
	mallocs, rpcs, fsyncs int64
}

func (u *usage) add(o *usage) {
	u.cpu += o.cpu
	u.mallocs += o.mallocs
	u.rpcs += o.rpcs
	u.fsyncs += o.fsyncs
}

// clientPass is what one client accumulates during a pass.
type clientPass struct {
	tally
	lat samples
}

// pass is the outcome of one closed-loop pass: the clients' tallies
// summed, their latencies merged and sorted.
type pass struct {
	tally
	wall   time.Duration
	lat    samples
	all    []uint32
	before counters
	after  counters
	used   usage
	// Per window of a measured pass (empty for a warm-up or traced
	// pass): the clients' throughput, their median latency, and the host
	// reference time taken right after.
	rates, p50s, refMs []float64
}

func (p *pass) ops() int64 { return p.attempted - p.failed }

// windowLen is how long the clients of a measured pass run between two
// readings of the host reference.
const windowLen = 100 * time.Millisecond

// runMeasured is an untraced pass of dur, taken as windows of windowLen
// with one run of the host reference after each. Its wall time and its
// counter deltas cover the windows only.
func (d *deployment) runMeasured(dur time.Duration, budget int64, ref *hostRef, bufs []samples) *pass {
	sum := &pass{}
	for sum.wall < dur && d.mutations.Load() < budget {
		p := d.runPass(min(windowLen, dur-sum.wall), budget, false, bufs)
		sum.rates = append(sum.rates, float64(p.ops())/p.wall.Seconds())
		sum.p50s = append(sum.p50s, quantileUs(p.all, 0.50))
		sum.refMs = append(sum.refMs, ref.run())
		sum.add(&p.tally)
		sum.wall += p.wall
		sum.used.add(&p.used)
		for k := range p.lat {
			sum.lat[k] = append(sum.lat[k], p.lat[k]...)
		}
	}
	for k := range sum.lat {
		slices.Sort(sum.lat[k])
		sum.all = append(sum.all, sum.lat[k]...)
	}
	slices.Sort(sum.all)
	return sum
}

// runPass drives every client in a closed loop for dur, or until the
// deployment has replicated budget directory mutations.
func (d *deployment) runPass(dur time.Duration, budget int64, traced bool, bufs []samples) *pass {
	p := &pass{}
	parts := make([]clientPass, len(d.clients))
	var wg sync.WaitGroup
	p.before = d.snapshot()
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range d.clients {
		wg.Add(1)
		go func(c *client, cp *clientPass) {
			defer wg.Done()
			for k := range cp.lat {
				cp.lat[k] = bufs[c.id][k][:0]
			}
			d.loop(c, cp, deadline, budget, traced)
			bufs[c.id] = cp.lat
		}(c, &parts[i])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after = d.snapshot()
	p.used = usage{
		cpu: p.after.cpu - p.before.cpu, mallocs: int64(p.after.mallocs - p.before.mallocs),
		rpcs: p.after.rpcs - p.before.rpcs, fsyncs: p.after.fsyncs() - p.before.fsyncs(),
	}
	for i := range parts {
		cp := &parts[i]
		p.add(&cp.tally)
		for k := range cp.lat {
			p.lat[k] = append(p.lat[k], cp.lat[k]...)
		}
	}
	for k := range p.lat {
		slices.Sort(p.lat[k])
		p.all = append(p.all, p.lat[k]...)
	}
	slices.Sort(p.all)
	return p
}

// maxRounds caps the untraced rounds of one workload.
const maxRounds = 40

// treeSampleEvery keeps the full span tree of one traced op in this many.
const treeSampleEvery = 1024

// mutationBudget ends a pass early once the deployment has replicated
// this many directory mutations (the warm-up may use a sixth of it).
// The IndexNode raft log compacts every 8192 applied entries, and a
// follower that is handed the snapshot while its applier is between
// entries panics (a race in internal/raft that a benchmark-only change
// may not fix). Ending the pass before the first compaction keeps every
// run alive; ops_per_s divides by the time the pass really ran. Only
// churn_mixed is fast enough to reach it. Remove with the race.
const mutationBudget = 6000

func (d *deployment) loop(c *client, cp *clientPass, deadline time.Time, budget int64, traced bool) {
	var attr spanAttributor
	for {
		o := d.wl.next(d.ns, c)
		var tr *trace.Trace
		var ctx context.Context
		if traced {
			tr, ctx = trace.New(kindNames[o.kind])
		}
		t0 := time.Now()
		res, err := d.issue(c, &o, ctx)
		el := time.Since(t0)
		if traced {
			tr.Finish()
			spans := tr.Spans()
			// The traced op time is the root span's, so that the span
			// self-times sum to it exactly.
			el = spans[0].Duration
			attr.attribute(spans, &cp.spans)
			if cp.attempted%treeSampleEvery == 0 {
				cp.trees = append(cp.trees, sampleTree(d.wl.name, kindNames[o.kind], c.id, spans))
			}
		}
		cp.attempted++
		if err != nil {
			cp.failed++
			if len(cp.errs) < 4 {
				cp.errs = append(cp.errs, fmt.Sprintf("%s %s: %v", kindNames[o.kind], o.path, err))
			}
		} else {
			c.applied(&o)
			if o.kind == opMkdir || o.kind == opRename {
				d.mutations.Add(1)
			}
			cls := o.kind.class()
			cp.lat[cls] = append(cp.lat[cls], uint32(min(el, 1<<32-1)))
			cp.retries += int64(res.Retries)
			cp.lookupNs += int64(res.Phases[types.PhaseLookup] + res.Phases[types.PhaseLoopDetect])
			cp.execNs += int64(res.Phases[types.PhaseExecute])
		}
		if t0.Add(el).After(deadline) || d.mutations.Load() >= budget {
			return
		}
	}
}

var kindNames = [numOpKinds]string{"stat", "lookup", "list", "create", "delete", "mkdir", "rename"}

// quantileUs is the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds (0 when there are none).
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// stat is one reported number: the median over rounds (or repeats) with
// the range beside it, so a noisy window cannot set the number.
type stat struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Unit    string    `json:"unit"`
	Samples int64     `json:"samples,omitempty"` // latency samples behind a quantile, summed over rounds
	Values  []float64 `json:"values,omitempty"`  // one per round or repeat
	Skipped string    `json:"skipped,omitempty"` // why a probe could not run
}

// trimmedMean is the mean of v without its top and bottom tenth.
func trimmedMean(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func newStat(name string, values []float64, samples int64) stat {
	return stat{
		Value: median(values), Min: slices.Min(values), Max: slices.Max(values),
		Unit: specs[name].Unit, Samples: samples, Values: values,
	}
}

func single(name string, v float64) stat { return newStat(name, []float64{v}, 0) }

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name      string          `json:"name"`
	Clients   int             `json:"clients"`
	Entries   int             `json:"entries"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Correct   bool            `json:"correct"`
	Errors    []string        `json:"errors,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	trees     []sampledTree
}

func usPerOp(ns int64, ops int64) float64 { return ratio(float64(ns)/1e3, float64(ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWorkload measures one workload. Every round runs on a deployment
// of its own — set-up (timed), warm-up, measured pass, correctness check
// — so setup_s is a median over as many set-ups as there are rounds, a
// lucky heap layout or leader placement cannot set a whole run's
// numbers, and no deployment's raft log grows past mutationBudget. The
// traced pass, when asked for, is one more such round.
func runWorkload(wl *workloadDef, o options, logf func(string, ...any)) (*workloadResult, error) {
	res := &workloadResult{Name: wl.name, Correct: true, EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
	series := map[string][]float64{}
	counts := map[string]int64{}
	add := func(name string, v float64, n int) {
		series[name] = append(series[name], v)
		counts[name] += int64(n)
	}
	var bufs []samples
	ref := newHostRef()
	// scale is hostFactor for a CPU-bound workload and 1 for one whose
	// clients sleep on simulated syncs, which no busy neighbour lengthens.
	scale := func(refMs float64) float64 {
		if wl.cpuBound {
			return hostFactor(refMs)
		}
		return 1
	}

	// round runs one slice on a fresh deployment and returns its pass.
	round := func(traced bool) (*pass, error) {
		base := liveHeap()
		refBefore := ref.run()
		t0 := time.Now()
		d, err := deploy(wl, o)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		defer d.close()
		setup := time.Since(t0).Seconds()
		add("setup_s", setup/scale((refBefore+ref.run())/2), 0)
		add("client.setup_s_raw", setup, 0)
		add("resident_bytes_per_entry", (float64(liveHeap())-float64(base))/float64(d.ns.entries), 0)
		res.Clients, res.Entries = len(d.clients), d.ns.entries
		for len(bufs) < len(d.clients) {
			var b samples
			for k := range b {
				b[k] = make([]uint32, 0, 1<<18)
			}
			bufs = append(bufs, b)
		}
		note := func(p *pass) {
			res.Attempted += p.attempted
			res.Failed += p.failed
			res.Errors = append(res.Errors, p.errs...)
		}
		note(d.runPass(o.warmup, mutationBudget/6, false, bufs))
		add("host.calib_us", hostCalibUs(), 0)
		var p *pass
		if traced {
			p = d.runPass(o.slice, mutationBudget, true, bufs)
		} else {
			p = d.runMeasured(o.slice, mutationBudget, ref, bufs)
		}
		note(p)
		if wl.mutates {
			res.Errors = append(res.Errors, d.verify()...)
		}
		return p, nil
	}

	// timings adds the five numbers that depend on the host's speed, for
	// a round's windows or for the whole run's. Throughput and reference
	// time are means over the windows with the top and bottom tenth left
	// out, so that one stalled window (the VM paused for 200 ms) cannot
	// set either.
	timings := func(rates, p50s, refMs []float64, add func(name string, v float64)) {
		raw, p50, ref := trimmedMean(rates), median(p50s), trimmedMean(refMs)
		add("client.ops_per_s_raw", raw)
		add("client.op_p50_us_raw", p50)
		add("host.ref_ms", ref)
		add("ops_per_s", raw*scale(ref))
		add("op_p50_us", p50/scale(ref))
	}

	// Rounds repeat until the measured passes add up to slices x slice:
	// five rounds when every pass runs its full length, more when
	// mutationBudget cuts them short, so that every workload is measured
	// over the same span of host time.
	var measured time.Duration
	var rates, p50s, refMs []float64
	for s := 0; measured < time.Duration(o.slices)*o.slice && s < maxRounds; s++ {
		p, err := round(false)
		if err != nil {
			return nil, err
		}
		measured += p.wall
		rates, p50s, refMs = append(rates, p.rates...), append(p50s, p.p50s...), append(refMs, p.refMs...)
		ops := float64(p.ops())
		timings(p.rates, p.p50s, p.refMs, func(name string, v float64) { add(name, v, len(p.all)) })
		add("op_p99_us", quantileUs(p.all, 0.99), len(p.all))
		add("cpu_us_per_op", ratio(float64(p.used.cpu)/1e3, ops), 0)
		add("allocs_per_op", ratio(float64(p.used.mallocs), ops), 0)
		add("rpcs_per_op", ratio(float64(p.used.rpcs), ops), 0)
		for cls, name := range classNames {
			add(name+"_p50_us", quantileUs(p.lat[cls], 0.50), len(p.lat[cls]))
			add("client."+name+"_p99_us", quantileUs(p.lat[cls], 0.99), len(p.lat[cls]))
		}
		add("client.op_p999_us", quantileUs(p.all, 0.999), len(p.all))
		add("fsyncs_per_op", ratio(float64(p.used.fsyncs), ops), 0)
		add("failed_ratio", ratio(float64(p.failed), float64(p.attempted)), 0)
		logf("%s: round %d  set-up %.3fs  %.0f ops/s (clock %.0f, host ref %.2f ms) over %.2fs  p50 %.1fus  p99 %.1fus  calib %.1fus", wl.name, s+1,
			series["setup_s"][s], series["ops_per_s"][s], series["client.ops_per_s_raw"][s], series["host.ref_ms"][s], p.wall.Seconds(),
			series["op_p50_us"][s], quantileUs(p.all, 0.99), series["host.calib_us"][s])
	}
	collect := func() {
		for name, v := range series {
			if specs[name].Layer == "" { // end-to-end
				res.EndToEnd[name] = newStat(name, v, counts[name])
			} else {
				res.PerLayer[name] = newStat(name, v, counts[name])
			}
		}
		// The host-dependent timings are reported over all the run's
		// windows at once: when mutationBudget cuts the rounds to ten
		// windows each, a round's reference time is too rough for its
		// median to be the better number. The round values stay beside
		// them as min, max and values.
		timings(rates, p50s, refMs, func(name string, v float64) {
			tier := res.PerLayer
			if specs[name].Layer == "" {
				tier = res.EndToEnd
			}
			st := tier[name]
			st.Value = v
			tier[name] = st
		})
	}
	collect()

	if o.traced {
		p, err := round(true)
		if err != nil {
			return nil, err
		}
		collect() // the traced round's set-up and calibration count too
		tracedLayer(res, p)
		res.trees = p.trees
		logf("%s: traced slice  %.0f ops/s  p50 %.1fus (x%.2f of untraced)", wl.name,
			float64(p.ops())/p.wall.Seconds(), quantileUs(p.all, 0.50), res.PerLayer["trace.overhead_ratio"].Value)
	}
	if res.Failed > 0 || len(res.Errors) > 0 {
		res.Correct = false
	}
	return res, nil
}

// liveHeap is the heap in use after a full collection, with freed pages
// returned to the OS: what the namespace keeps resident.
func liveHeap() uint64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// verify runs fsck and checks that a full listing of every directory
// the workload wrote into holds exactly the populated names plus what
// the clients created and did not delete.
func (d *deployment) verify() []string {
	var errs []string
	if rep := fsck.Check(d.cl.Core()); !rep.OK() {
		errs = append(errs, "fsck: "+rep.String())
	}
	want := make(map[string]map[string]bool, len(d.ns.initial))
	dirOf := func(dir string) map[string]bool {
		set := want[dir]
		if set == nil {
			set = make(map[string]bool)
			want[dir] = set
		}
		return set
	}
	for dir, names := range d.ns.initial {
		set := dirOf(dir)
		for _, n := range names {
			set[n] = true
		}
	}
	for _, c := range d.clients {
		paths := append(append([]string{}, c.live...), c.made...)
		if c.priv[0] != "" {
			paths = append(paths, c.privatePath(c.privAtB))
			dirOf(c.priv[0])
			dirOf(c.priv[1])
		}
		for _, p := range paths {
			dirOf(path.Dir(p))[path.Base(p)] = true
		}
	}
	cl := d.cl.Client()
	for dir, set := range want {
		infos, err := cl.List(dir)
		if err != nil {
			errs = append(errs, fmt.Sprintf("list %s: %v", dir, err))
			continue
		}
		got := make(map[string]bool, len(infos))
		for _, inf := range infos {
			name := path.Base(inf.Path)
			got[name] = true
			if !set[name] {
				errs = append(errs, fmt.Sprintf("list %s: unexpected %q", dir, name))
			}
		}
		for name := range set {
			if !got[name] {
				errs = append(errs, fmt.Sprintf("list %s: missing %q", dir, name))
			}
		}
		if len(errs) > 16 {
			break
		}
	}
	return errs
}
