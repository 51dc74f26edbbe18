package raft

import (
	"bytes"
	"fmt"
)

// Checker is the group-level safety check the raft and IndexNode group
// tests run: no two running replicas' logs disagree at an index both
// have committed, entries with the same index and term carry the same
// command, and no replica's commit index is below what an earlier Check
// saw — across a Crash and Restart too, once the replica has caught up
// again. Crashed replicas hold no log and are skipped.
type Checker struct {
	rs   []*Raft
	high []uint64
}

// NewChecker returns a Checker over the group rs.
func NewChecker(rs []*Raft) *Checker {
	return &Checker{rs: rs, high: make([]uint64, len(rs))}
}

// Check reports the first violation it finds.
func (c *Checker) Check() error {
	logs := make([][]Entry, len(c.rs))
	commits := make([]uint64, len(c.rs))
	for i, r := range c.rs {
		r.mu.Lock()
		if !r.stopped() {
			logs[i], commits[i] = append([]Entry(nil), r.log...), r.commitIndex
		}
		r.mu.Unlock()
		if logs[i] == nil {
			continue
		}
		if commits[i] < c.high[i] {
			return fmt.Errorf("raft: %s commit index fell from %d to %d", r.id, c.high[i], commits[i])
		}
		c.high[i] = commits[i]
	}
	for i := range logs {
		for j := i + 1; j < len(logs); j++ {
			a, b := logs[i], logs[j]
			if a == nil || b == nil {
				continue
			}
			from := max(a[0].Index, b[0].Index) + 1
			to := min(a[len(a)-1].Index, b[len(b)-1].Index)
			for idx := from; idx <= to; idx++ {
				ea, eb := a[idx-a[0].Index], b[idx-b[0].Index]
				committed := idx <= min(commits[i], commits[j])
				if (committed || ea.Term == eb.Term) && (ea.Term != eb.Term || !bytes.Equal(ea.Cmd, eb.Cmd)) {
					return fmt.Errorf("raft: %s and %s disagree at index %d (terms %d, %d; commit %d, %d)",
						c.rs[i].id, c.rs[j].id, idx, ea.Term, eb.Term, commits[i], commits[j])
				}
			}
		}
	}
	return nil
}
