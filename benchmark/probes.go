package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mantle"
	"mantle/internal/btree"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// Layer probes: each times calls into one layer's public functions on a
// standalone instance — single goroutine, fixed iteration count, median
// of probeRepeats repeats — once per benchmark run.

const probeRepeats = 5

// prober collects probe results; scale divides every iteration count so
// the smoke test runs the same code in a fraction of the time.
type prober struct {
	scale   int
	workdir string
	out     map[string]stat
	logf    func(string, ...any)
}

// time runs fn(i) for i in [0, iters) probeRepeats times and records
// the median per-call time in the unit of the named metric.
func (p *prober) time(name string, iters int, fn func(i int)) {
	iters = max(iters/p.scale, 4)
	div := 1.0 // ns
	if specs[name].Unit == "us" {
		div = 1e3
	}
	var vals []float64
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(r*iters + i)
		}
		vals = append(vals, float64(time.Since(t0))/float64(iters)/div)
	}
	p.out[name] = newStat(name, vals, 0)
}

func (p *prober) set(name string, v float64) { p.out[name] = single(name, v) }

func (p *prober) skip(name string, err error) {
	p.logf("probe %s skipped: %v", name, err)
	st := single(name, 0)
	st.Skipped = err.Error()
	p.out[name] = st
}

// must turns a set-up error inside a probe into a panic that runProbes
// reports against the probe group; probes only ever issue calls that
// succeed on a fresh instance.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

var noop = func() error { return nil }

// hostCalibUs times a fixed FNV-1a loop over 64 KiB: the same
// instructions every time, so a slow reading means a slow host.
func hostCalibUs() float64 {
	var buf [64 << 10]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	h := uint64(fnvOffset)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime
	}
	calibSink = h
	return float64(time.Since(t0)) / 1e3
}

var calibSink uint64

func (p *prober) host() {
	var calib, floor []float64
	for i := 0; i < 21; i++ {
		calib = append(calib, hostCalibUs())
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		floor = append(floor, float64(time.Since(t0))/1e3)
	}
	p.out["host.calib_us"] = newStat("host.calib_us", calib, 0)
	p.out["host.sleep_floor_us"] = newStat("host.sleep_floor_us", floor, 0)
}

func (p *prober) fabric() {
	fab := netsim.NewLocalFabric()
	node := netsim.NewNode("probe", 0)
	caller := rpc.NewCaller(fab)
	p.time("netsim.exec_ns", 500_000, func(int) { _ = node.Exec(0, noop) })
	p.time("rpc.call_ns", 500_000, func(int) { _ = caller.Begin().Call(node, 0, noop) })
}

func keyLess(a, b types.Key) bool { return a.Less(b) }

// probeKey spreads n keys over n/64 parents, 64 names each, the shape
// of a populated shard.
func probeKey(names []string, i int) types.Key {
	return types.Key{Pid: types.InodeID(1 + i/len(names)), Name: names[i%len(names)]}
}

func (p *prober) btree() {
	n := max(1_000_000/p.scale, 1<<12)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("o%02d", i)
	}
	t := btree.New[types.Key, uint64](keyLess)
	t.BulkLoad(n, func(i int) (types.Key, uint64) { return probeKey(names, i), uint64(i) })
	// A multiplicative stride visits keys in an order the prefetcher
	// cannot follow.
	at := func(i int) int { return int(uint64(i) * 2654435761 % uint64(n)) }
	p.time("btree.get_ns", 200_000, func(i int) { t.Get(probeKey(names, at(i))) })
	p.time("btree.scan_row_ns", 200_000, func(i int) {
		if i%64 != 0 {
			return // one 64-row scan per 64 calls: the reported time is per row
		}
		pid := types.InodeID(1 + at(i)/64)
		t.AscendRange(types.Key{Pid: pid}, types.Key{Pid: pid + 1}, func(types.Key, uint64) bool { return true })
	})
	fresh := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	p.time("btree.put_ns", 50_000, func(i int) {
		t.Put(types.Key{Pid: types.InodeID(1 + at(i)/64), Name: fresh[i%len(fresh)] + strconv.Itoa(i/len(fresh))}, 1)
	})
}

func probeEntry(k types.Key, id int) types.Entry {
	return types.Entry{Pid: k.Pid, Name: k.Name, ID: types.InodeID(1<<30 + id), Kind: types.KindObject, Perm: types.PermAll}
}

func (p *prober) storage() {
	n := max(200_000/p.scale, 1<<12)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("o%02d", i)
	}
	sh := storage.NewShard("probe")
	sh.BulkLoad(n, func(i int) (types.Key, types.Entry) {
		k := probeKey(names, i)
		return k, probeEntry(k, i)
	})
	at := func(i int) int { return int(uint64(i) * 2654435761 % uint64(n)) }
	p.time("storage.get_ns", 200_000, func(i int) { sh.Get(probeKey(names, at(i))) })
	p.time("storage.scan_children_row_ns", 200_000, func(i int) {
		if i%64 == 0 {
			sh.ScanChildren(types.InodeID(1+at(i)/64), func(storage.Row) bool { return true })
		}
	})
	commit := func(sh *storage.Shard, i int) {
		k := types.Key{Pid: types.InodeID(1 + at(i)/64), Name: "c" + strconv.Itoa(i)}
		id := "t" + strconv.Itoa(i)
		must(sh.Prepare(id, nil, []storage.Mutation{{Kind: storage.MutPut, Key: k, Entry: probeEntry(k, i), IfAbsent: true}}))
		sh.Commit(id)
	}
	p.time("storage.prepare_commit_us", 20_000, func(i int) { commit(sh, i) })
	logged := storage.NewShard("probe-wal")
	logged.AttachWAL(storage.NewWAL(0))
	p.time("storage.wal_commit_us", 20_000, func(i int) { commit(logged, i) })
}

func (p *prober) txn() {
	fab := netsim.NewLocalFabric()
	caller := rpc.NewCaller(fab)
	parts := make([]*txn.Participant, 2)
	for i := range parts {
		id := "probe-" + strconv.Itoa(i)
		parts[i] = &txn.Participant{Shard: storage.NewShard(id), Node: netsim.NewNode(id, 0)}
	}
	run := func(r txn.Runner, tag string, i int) {
		pieces := make([]txn.Piece, len(parts))
		for s, part := range parts {
			k := types.Key{Pid: types.InodeID(1 + s), Name: tag + strconv.Itoa(i)}
			pieces[s] = txn.Piece{P: part, Muts: []storage.Mutation{{Kind: storage.MutPut, Key: k, Entry: probeEntry(k, i)}}}
		}
		must(r.Run(caller.Begin(), tag+strconv.Itoa(i), pieces))
	}
	p.time("txn.direct_2shard_us", 4_000, func(i int) { run(txn.Direct{}, "d", i) })
	batcher := txn.NewBatcher(0)
	p.time("txn.batcher_2shard_us", 4_000, func(i int) { run(batcher, "b", i) })
}

// nopSM is the state machine of the raft probes.
type nopSM struct{}

func (nopSM) Apply(uint64, []byte) {}

func (p *prober) raft() {
	for _, voters := range []int{1, 3} {
		fab := netsim.NewLocalFabric()
		cfgs := make([]raft.Config, voters)
		for i := range cfgs {
			cfgs[i] = raft.Config{ID: "probe-" + strconv.Itoa(i), Fabric: fab, SM: nopSM{},
				ElectionTimeout: time.Second, BatchEnabled: true, Pipeline: true}
		}
		group := raft.NewGroup(cfgs)
		leader, err := raft.WaitLeader(group, 10*time.Second)
		must(err)
		cmd := make([]byte, 64)
		p.time("raft.propose"+strconv.Itoa(voters)+"_us", 5_000, func(int) {
			_, err := leader.Propose(cmd)
			must(err)
		})
		for _, r := range group {
			r.Stop()
		}
	}
}

func (p *prober) codec() {
	cmd := indexnode.Cmd{Kind: indexnode.CmdRename, Pid: 7, Name: "src", ID: 9, Perm: types.PermAll,
		DstPid: 11, DstName: "dst", Path: "/t1/t2/t3/t4/t5/t6/t7/t8/g0/d0/src", LockID: "mntl-12345"}
	p.time("indexnode.cmd_codec_ns", 200_000, func(int) {
		_, err := indexnode.DecodeCmd(cmd.Encode())
		must(err)
	})
}

// service probes the assembled deployment one layer at a time on a
// single client: core ops, the IndexNode and TafDB calls underneath a
// Stat, and the TCP front door on one connection. All three share the
// stat_hot namespace and the default deployment, so
// core.stat_us = core.stat_self_us + indexnode.lookup_hit_us + tafdb.stat_us
// holds by construction.
func (p *prober) service() {
	cl, err := mantle.New(defaultCfg)
	must(err)
	defer cl.Stop()
	ns, err := buildHot(cl, 0)
	must(err)
	m := cl.Core()
	begin := m.Caller().Begin
	nd := len(ns.dirs)
	obj := func(i int) string { return ns.objs[i%nd][(i/nd)%len(ns.objs[0])] }

	p.time("core.stat_us", 20_000, func(i int) {
		_, err := m.ObjStat(begin(), obj(i))
		must(err)
	})
	p.time("core.lookup_us", 20_000, func(i int) {
		_, err := m.Lookup(begin(), ns.dirs[i%nd])
		must(err)
	})
	p.time("indexnode.lookup_hit_us", 40_000, func(i int) {
		_, err := m.Index().Lookup(begin(), ns.dirs[i%nd])
		must(err)
	})
	dirIDs := make([]types.InodeID, nd)
	for i, d := range ns.dirs {
		res, err := m.Lookup(begin(), d)
		must(err)
		dirIDs[i] = res.Entry.ID
	}
	p.time("tafdb.stat_us", 40_000, func(i int) {
		_, err := m.DB().StatObject(begin(), dirIDs[i%nd], ns.initial[ns.dirs[0]][(i/nd)%len(ns.objs[0])])
		must(err)
	})
	p.time("tafdb.readdir_page_us", 20_000, func(i int) {
		_, _, err := m.DB().ReadDirPage(begin(), dirIDs[i%nd], "", listPage)
		must(err)
	})
	p.set("core.stat_self_us", p.out["core.stat_us"].Value-p.out["indexnode.lookup_hit_us"].Value-p.out["tafdb.stat_us"].Value)

	// The TCP front door, read-only, before the namespace is written to.
	p.remote(cl, obj)

	p.time("tafdb.create_us", 10_000, func(i int) {
		_, _, err := m.DB().CreateObject(begin(), dirIDs[i%nd], "t"+strconv.Itoa(i), 1)
		must(err)
	})
	p.time("core.create_us", 10_000, func(i int) {
		_, err := m.Create(begin(), ns.dirs[i%nd]+"/c"+strconv.Itoa(i), 1)
		must(err)
	})
	// Directory mutations replicate through raft and, under follower
	// read, the next lookup waits up to a heartbeat for a follower to
	// learn the new commit index: a serial client sees the whole of that
	// wait here, so a handful of iterations already takes a second.
	p.time("core.mkdir_us", 8, func(i int) {
		_, err := m.Mkdir(begin(), ns.dirs[i%nd]+"/m"+strconv.Itoa(i))
		must(err)
	})
	_, err = m.Mkdir(begin(), ns.dirs[0]+"/p")
	must(err)
	at := [2]string{ns.dirs[0] + "/p", ns.dirs[1] + "/p"}
	p.time("core.rename_us", 8, func(i int) {
		_, err := m.DirRename(begin(), at[i%2], at[(i+1)%2])
		must(err)
	})
}

func (p *prober) remote(cl *mantle.Cluster, obj func(int) string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = mantle.Serve(ln, cl) // returns net.ErrClosed on close
	}()
	defer func() {
		_ = ln.Close()
		<-served
	}()
	rc, err := mantle.Dial(ln.Addr().String())
	must(err)
	defer rc.Close()
	p.time("remote.stat_rt_us", 4_000, func(i int) {
		_, err := rc.Stat(obj(i))
		must(err)
	})
	p.set("remote.overhead_us", p.out["remote.stat_rt_us"].Value-p.out["core.stat_us"].Value)
}

func (p *prober) walk() {
	cfg := defaultCfg
	cfg.DisableCache = true
	cl, err := mantle.New(cfg)
	must(err)
	defer cl.Stop()
	ns, err := buildHot(cl, 0)
	must(err)
	m := cl.Core()
	p.time("indexnode.lookup_walk_us", 40_000, func(i int) {
		_, err := m.Index().Lookup(m.Caller().Begin(), ns.dirs[i%len(ns.dirs)])
		must(err)
	})
}

// followerChurn runs churn_mixed's request mix against the default
// deployment, where lookups are served by followers: a read that
// follows a directory mutation waits for its follower to learn the new
// commit index, up to a heartbeat. The gap to churn_mixed's own
// ops_per_s is the cost of follower read-after-write.
func (p *prober) followerChurn() {
	wl, err := workloadByName("churn_mixed")
	must(err)
	followers := *wl
	followers.cfg = defaultCfg
	d, err := deploy(&followers, options{seed: 1, nproc: runtime.NumCPU()})
	must(err)
	defer d.close()
	pass := d.runPass(max(3*time.Second/time.Duration(p.scale), 200*time.Millisecond), mutationBudget, false, make([]samples, len(d.clients)))
	if pass.failed > 0 {
		panic(fmt.Errorf("%d of %d ops failed: %v", pass.failed, pass.attempted, pass.errs))
	}
	p.set("indexnode.follower_churn_ops_per_s", float64(pass.ops())/pass.wall.Seconds())
	p.set("indexnode.follower_churn_p99_us", quantileUs(pass.all, 0.99))
}

// repl times how fast the asynchronous link drains: creates on the
// primary, then wait until the secondary has applied every record.
func (p *prober) repl() {
	dr, err := mantle.NewDR(defaultCfg, mantle.DRConfig{})
	must(err)
	defer dr.Stop()
	c := dr.Primary().Client()
	must(c.Mkdir("/r"))
	n := max(20_000/p.scale, 500)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, err := c.Create("/r/o"+strconv.Itoa(i), 1)
		must(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := dr.LinkStats()
		if st.Shipped > int64(n) && st.LagEntries == 0 && dr.ReplStatus()["secondary"].Watermarks.Applied >= st.Shipped {
			break
		}
		if time.Now().After(deadline) {
			panic(fmt.Errorf("link did not drain: %+v", st))
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(t0)
	if rows := dr.Secondary().Core().DB().TotalRows(); rows < n {
		panic(fmt.Errorf("secondary holds %d rows after draining %d creates", rows, n))
	}
	p.set("repl.drain_entries_per_s", float64(n)/elapsed.Seconds())
}

// gateway builds cmd/mantled, starts it on a free loopback port and
// times serial GETs of one object through the HTTP front door.
func (p *prober) gateway() error {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		return err
	}
	bin, err := filepath.Abs(filepath.Join(p.workdir, "mantled"))
	if err != nil {
		return err
	}
	if out, err := exec.Command(goBin, "build", "-buildvcs=false", "-o", bin, "mantle/cmd/mantled").CombinedOutput(); err != nil {
		return fmt.Errorf("go build mantle/cmd/mantled: %v: %s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-replicas", "3", "-shards", "8")
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	do := func(method, url string) error {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s %s: %s", method, url, resp.Status)
		}
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for do(http.MethodGet, base+"/healthz") != nil {
		if time.Now().After(deadline) {
			return errors.New("mantled did not become healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := do(http.MethodPost, base+"/ns/g/w?op=mkdir"); err != nil {
		return err
	}
	if err := do(http.MethodPut, base+"/ns/g/w/obj"); err != nil {
		return err
	}
	var failed error
	p.time("gateway.http_stat_us", 400, func(int) {
		if err := do(http.MethodGet, base+"/ns/g/w/obj"); err != nil {
			failed = err
		}
	})
	return failed
}

// runProbes runs every probe group. A group that cannot run reports its
// metrics as skipped, with the reason, rather than leaving them out.
func runProbes(scale int, workdir string, logf func(string, ...any)) map[string]stat {
	p := &prober{scale: max(scale, 1), workdir: workdir, out: map[string]stat{}, logf: logf}
	groups := []struct {
		run   func()
		names []string
	}{
		{p.host, []string{"host.calib_us", "host.sleep_floor_us"}},
		{p.fabric, []string{"netsim.exec_ns", "rpc.call_ns"}},
		{p.btree, []string{"btree.get_ns", "btree.scan_row_ns", "btree.put_ns"}},
		{p.storage, []string{"storage.get_ns", "storage.scan_children_row_ns", "storage.prepare_commit_us", "storage.wal_commit_us"}},
		{p.txn, []string{"txn.direct_2shard_us", "txn.batcher_2shard_us"}},
		{p.raft, []string{"raft.propose1_us", "raft.propose3_us"}},
		{p.codec, []string{"indexnode.cmd_codec_ns"}},
		{p.service, []string{"core.stat_us", "core.lookup_us", "indexnode.lookup_hit_us", "tafdb.stat_us",
			"tafdb.readdir_page_us", "core.stat_self_us", "remote.stat_rt_us", "remote.overhead_us",
			"tafdb.create_us", "core.create_us", "core.mkdir_us", "core.rename_us"}},
		{p.walk, []string{"indexnode.lookup_walk_us"}},
		{p.followerChurn, []string{"indexnode.follower_churn_ops_per_s", "indexnode.follower_churn_p99_us"}},
		{p.repl, []string{"repl.drain_entries_per_s"}},
		{func() { must(p.gateway()) }, []string{"gateway.http_stat_us"}},
	}
	for _, g := range groups {
		func() {
			defer func() {
				if r := recover(); r != nil {
					for _, name := range g.names {
						p.skip(name, fmt.Errorf("%v", r))
					}
				}
			}()
			t0 := time.Now()
			g.run()
			logf("probes %v: %.2fs", g.names, time.Since(t0).Seconds())
		}()
	}
	return p.out
}
