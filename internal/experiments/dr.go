package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/fsck"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/repl"
	"mantle/internal/rpc"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// DR measures the disaster-recovery story end to end: a two-site
// deployment takes a write storm on the primary while the WAN link is
// blackholed mid-storm, then heals; the run reports the log backlog
// at heal time, the time to converge (lag and pending transactions both
// zero), and the loss window at failover (records discarded because
// they never became applicable — zero after a full drain). Convergence
// is verified structurally: the sites' folded row sets must be
// identical and fsck must pass on the promoted secondary.
func DR(p Params) ([]Row, error) {
	s, err := core.NewSites(core.SitesConfig{
		Site: core.Config{
			TafDB: tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto, WALSyncCost: 5 * time.Microsecond},
			Index: indexnode.Config{Voters: 3, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
		},
		Link: repl.LinkConfig{Interval: 200 * time.Microsecond, BatchMax: 128},
	})
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	s.StartReplication()
	pri := s.Primary
	begin := func() *rpc.Op { return pri.Caller().Begin() }

	writers := p.Clients
	if writers > 16 {
		writers = 16
	}
	if writers < 2 {
		writers = 2
	}
	for w := 0; w < writers; w++ {
		if _, err := pri.Mkdir(begin(), fmt.Sprintf("/w%d", w)); err != nil {
			return nil, err
		}
	}

	inj := faults.New(3)
	inj.Attach(s.WAN)

	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := fmt.Sprintf("/w%d", w)
				switch i % 4 {
				case 0:
					_, _ = pri.Mkdir(begin(), fmt.Sprintf("%s/d%05d", base, i))
				case 1, 2:
					_, _ = pri.Create(begin(), fmt.Sprintf("%s/o%05d", base, i), int64(i))
				case 3:
					_, _ = pri.SetPerm(begin(), base, types.Perm(1+i%7))
				}
				ops.Add(1)
			}
		}(w)
	}

	storm := 25 * time.Millisecond
	if p.Quick {
		storm = 8 * time.Millisecond
	}
	time.Sleep(storm)
	inj.Blackhole(core.SecondaryReplName)
	time.Sleep(storm)
	close(stop)
	wg.Wait()

	backlog := s.Link().Stats()
	fmt.Fprintf(p.Out, "write storm: %d ops across %d writers (%v, WAN severed halfway)\n",
		ops.Load(), writers, 2*storm)
	fmt.Fprintf(p.Out, "backlog at heal: %d entries / %d bytes behind (shipped %d, %d ship failures)\n",
		backlog.LagEntries, backlog.LagBytes, backlog.Shipped, backlog.Failures)

	// Heal and time the drain.
	healed := time.Now()
	inj.Restore(core.SecondaryReplName)
	for {
		st := s.Link().Stats()
		w := s.Applier().Watermarks()
		if st.LagEntries == 0 && w.Pending == 0 {
			break
		}
		if time.Since(healed) > 30*time.Second {
			return nil, fmt.Errorf("dr: replication did not converge: lag=%+v pending=%d", st, w.Pending)
		}
		time.Sleep(200 * time.Microsecond)
	}
	converge := time.Since(healed)

	promoteStart := time.Now()
	rep := s.Failover()
	promote := time.Since(promoteStart)

	divergences := len(fsck.CompareSites(pri, s.Secondary))
	check := fsck.Check(s.Secondary)

	w := rep.Watermarks
	fmt.Fprintf(p.Out, "time-to-converge after heal: %v (%d records, %d mutations applied)\n",
		converge.Round(time.Microsecond), w.Applied, w.Muts)
	fmt.Fprintf(p.Out, "failover: promoted in %v, index rebuilt with %d entries\n",
		promote.Round(time.Microsecond), rep.IndexEntries)
	fmt.Fprintf(p.Out, "loss window: %d records discarded, %d LWW conflicts\n",
		rep.Discarded, w.Conflicts)
	fmt.Fprintf(p.Out, "convergence: %d row divergences between sites; promoted-site %s\n",
		divergences, check)
	if rep.Discarded != 0 || divergences != 0 || !check.OK() {
		return nil, fmt.Errorf("dr: drained failover not clean: discarded=%d divergences=%d fsck=%s",
			rep.Discarded, divergences, check)
	}
	return nil, nil
}
