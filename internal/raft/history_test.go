package raft

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/clock"
	"mantle/internal/faults"
)

// histOp is one completed operation on one register: a write of a unique
// value or a read that returned value, with its invoke and return times
// (clock.Mono). A write whose outcome is unknown — it failed, but may
// still commit — returns at +∞.
type histOp struct {
	write    bool
	value    string
	inv, ret time.Duration
}

const never = time.Duration(math.MaxInt64)

// checkRegister reports whether one register's history is linearizable,
// by Gibbons and Korach's zone test for registers whose writes carry
// unique values ("Testing shared memories", SIAM J. Comput. 1997). A
// cluster is a write with every read that returned its value; the
// initial value "" is a write at −∞. A linearization places each
// cluster's ops together, write first. A cluster's zone runs from its
// earliest return to its latest invocation: when the earliest return
// comes first (a forward zone), the cluster must span the whole zone;
// otherwise (a backward zone) it fits at any one point inside it. The
// history is linearizable iff no read returns before its write is
// invoked, no two forward zones overlap, and no backward zone lies
// inside a forward one.
func checkRegister(ops []histOp) error {
	type cluster struct {
		value          string
		inv            time.Duration // the write's invocation
		minRet, maxInv time.Duration
	}
	initial := &cluster{inv: -never, minRet: -never, maxInv: -never}
	clusters := map[string]*cluster{"": initial}
	for _, o := range ops {
		if o.write {
			if _, dup := clusters[o.value]; dup {
				return fmt.Errorf("value %q written twice", o.value)
			}
			clusters[o.value] = &cluster{value: o.value, inv: o.inv, minRet: o.ret, maxInv: o.inv}
		}
	}
	for _, o := range ops {
		if o.write {
			continue
		}
		c := clusters[o.value]
		switch {
		case c == nil:
			return fmt.Errorf("read [%v, %v] returned %q, which nobody wrote", o.inv, o.ret, o.value)
		case o.ret < c.inv:
			return fmt.Errorf("read [%v, %v] returned %q before its write began at %v", o.inv, o.ret, o.value, c.inv)
		}
		c.minRet, c.maxInv = min(c.minRet, o.ret), max(c.maxInv, o.inv)
	}
	type zone struct {
		lo, hi time.Duration
		value  string
	}
	var forward, backward []zone
	for _, c := range clusters {
		if c.minRet < c.maxInv {
			forward = append(forward, zone{c.minRet, c.maxInv, c.value})
		} else {
			backward = append(backward, zone{c.maxInv, c.minRet, c.value})
		}
	}
	sort.Slice(forward, func(i, j int) bool { return forward[i].lo < forward[j].lo })
	for i := 1; i < len(forward); i++ {
		if a, b := forward[i-1], forward[i]; b.lo < a.hi {
			return fmt.Errorf("values %q [%v, %v] and %q [%v, %v] must each hold across overlapping spans", a.value, a.lo, a.hi, b.value, b.lo, b.hi)
		}
	}
	for _, b := range backward {
		for _, f := range forward {
			if f.lo < b.lo && b.hi < f.hi {
				return fmt.Errorf("value %q [%v, %v] holds inside %q's span [%v, %v]: a stale read", b.value, b.lo, b.hi, f.value, f.lo, f.hi)
			}
		}
	}
	return nil
}

// The checker's own test: a read that returns an overwritten value after
// the overwrite completed is flagged, and so is one that returns the
// initial value after a write completed; an ordinary concurrent history
// passes.
func TestHistoryCheckerFlagsStaleRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []histOp
		ok   bool
	}{
		{"stale", []histOp{
			{write: true, value: "1", inv: 0, ret: 10},
			{write: true, value: "2", inv: 20, ret: 30},
			{value: "1", inv: 40, ret: 50},
		}, false},
		{"stale initial", []histOp{
			{write: true, value: "1", inv: 0, ret: 10},
			{value: "", inv: 20, ret: 30},
		}, false},
		{"read from the future", []histOp{
			{value: "1", inv: 0, ret: 5},
			{write: true, value: "1", inv: 10, ret: 20},
		}, false},
		{"concurrent", []histOp{
			{value: "", inv: 0, ret: 5},
			{write: true, value: "1", inv: 0, ret: 10},
			{value: "1", inv: 5, ret: 8},
			{write: true, value: "2", inv: 9, ret: never},
			{value: "1", inv: 11, ret: 12},
			{value: "2", inv: 13, ret: 14},
		}, true},
	} {
		if err := checkRegister(tc.ops); (err == nil) != tc.ok {
			t.Errorf("%s: checkRegister = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// lastValue is key's register value in an applied command sequence of
// "key=value" writes.
func lastValue(applied []string, key string) string {
	for i := len(applied) - 1; i >= 0; i-- {
		if k, v, _ := strings.Cut(applied[i], "="); k == key {
			return v
		}
	}
	return ""
}

// Concurrent histories against the register model: writers propose
// unique values through whichever replica leads, readers call
// ConsistentRead on every replica — leader, followers and a learner,
// inside their leases or by ReadIndex rounds — and each key's history
// must be linearizable while the fabric drops 5 % of messages, the
// leader is cut off from the majority and healed, and a grant holder
// crashes and restarts.
func TestLinearizableHistoryUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	inj := faults.New(rand.Int64())
	rs, recs := faultGroup(t, inj, 3, 1, func(c *Config) {
		c.ElectionTimeout = 100 * time.Millisecond
		c.HeartbeatInterval = 10 * time.Millisecond
		c.FsyncCost = 50 * time.Microsecond
	})
	if _, err := WaitLeader(rs, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b"}
	var mu sync.Mutex
	history := map[string][]histOp{}
	record := func(key string, o histOp) {
		mu.Lock()
		history[key] = append(history[key], o)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				var leader *Raft // a cut-off leader may still claim the role: rotate
				for k := range rs {
					if r := rs[(i+k)%len(rs)]; r.Role() == Leader {
						leader = r
						break
					}
				}
				if leader == nil {
					continue
				}
				key, value := keys[i%len(keys)], fmt.Sprintf("w%d-%d", w, i)
				o := histOp{write: true, value: value, inv: clock.Mono()}
				_, err := leader.ProposeTimeout([]byte(key+"="+value), 30*time.Millisecond)
				if o.ret = clock.Mono(); err != nil {
					o.ret = never
				}
				record(key, o)
			}
		}(w)
	}
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *Raft) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
				key := keys[n%len(keys)]
				o := histOp{inv: clock.Mono()}
				err := r.ConsistentRead(func() error {
					o.value = lastValue(recs[i].snapshot(), key)
					return nil
				})
				if o.ret = clock.Mono(); err == nil {
					record(key, o)
				}
			}
		}(i, r)
	}

	inj.DropAll(0.05)
	time.Sleep(300 * time.Millisecond)
	if l, err := WaitLeader(rs, 2*time.Second); err == nil {
		// The majority elects as soon as its voters will vote, while the
		// cut-off leader still claims the role until check-quorum steps it
		// down (twice the election timeout).
		cut := inj.Partition([]string{l.ID()}, ids(rs, l))
		var majority []*Raft
		for _, r := range rs[:3] {
			if r != l {
				majority = append(majority, r)
			}
		}
		for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
			hurryElection(majority)
		}
		inj.Heal(cut)
	}
	time.Sleep(300 * time.Millisecond)
	var holder *Raft
	for _, r := range rs {
		r.mu.Lock()
		if r.role != Leader && clock.Mono() < r.grant.until {
			holder = r
		}
		r.mu.Unlock()
	}
	if holder == nil {
		t.Error("no replica held a read grant to crash")
	} else {
		inj.Crash(holder)
		time.Sleep(200 * time.Millisecond)
		if err := inj.Restart(holder); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	inj.Clear()

	for _, key := range keys {
		ops := history[key]
		reads := 0
		for _, o := range ops {
			if !o.write {
				reads++
			}
		}
		if reads == 0 || reads == len(ops) {
			t.Errorf("key %s: %d reads among %d ops, want both reads and writes", key, reads, len(ops))
		}
		if err := checkRegister(ops); err != nil {
			t.Errorf("key %s: %d ops not linearizable: %v (injector seed %d)", key, len(ops), err, inj.Seed())
		}
	}
}
