package indexnode

import (
	"time"

	"mantle/internal/types"
)

// This file is the group's elastic hot-entry replication tier (DESIGN.md
// §9): a decaying read-heat sketch feeds a promotion loop that maintains
// a small hot-set of directory paths; lookups of hot paths are served by
// non-leader replicas inside their raft read grants (no leader round
// trip), so the leader's read CPU stops scaling with skew. The same
// machinery tracks per-replica load hints — sampled from each reply, the
// in-process equivalent of the Load field piggybacked on wire replies —
// and routes reads with power-of-two-choices, shedding with a typed
// ErrOverloaded once every eligible replica is saturated.

// hotSet is the immutable promoted-path set; the promotion loop swaps a
// fresh one in atomically so the lookup fast path is a pointer load and
// a map probe.
type hotSet struct {
	paths map[string]struct{}
}

// isHot reports whether path is currently promoted.
func (g *Group) isHot(path string) bool {
	hs := g.hotSet.Load()
	if hs == nil {
		return false
	}
	_, ok := hs.paths[path]
	return ok
}

// HotSet returns the currently promoted paths (status surface, tests).
func (g *Group) HotSet() []string {
	hs := g.hotSet.Load()
	if hs == nil {
		return nil
	}
	out := make([]string, 0, len(hs.paths))
	for p := range hs.paths {
		out = append(out, p)
	}
	return out
}

// startHotspotLoop launches the promotion/demotion manager. Every
// HotPromoteInterval it snapshots the decaying read-heat sketch
// (snapshotting folds the decay, so silent keys shrink) and rebuilds the
// hot-set with hysteresis: promote at HotThreshold, demote only below
// HotThreshold/2, bounded by hotSetMax entries.
func (g *Group) startHotspotLoop() {
	g.hotWG.Add(1)
	go func() {
		defer g.hotWG.Done()
		t := time.NewTicker(g.cfg.HotPromoteInterval)
		defer t.Stop()
		for {
			select {
			case <-g.hotStop:
				return
			case <-t.C:
				g.refreshHotSet()
			}
		}
	}()
}

// hotSetMax bounds the promoted set.
const hotSetMax = 32

// refreshHotSet recomputes the hot-set from the current sketch state.
func (g *Group) refreshHotSet() {
	old := g.hotSet.Load()
	items := g.readHeat.Snapshot() // sorted by descending decayed count
	next := make(map[string]struct{}, hotSetMax)
	for _, it := range items {
		if len(next) >= hotSetMax {
			break
		}
		keep := it.Count >= g.cfg.HotThreshold
		if !keep && old != nil {
			// Hysteresis: an already-hot path stays until it cools to
			// half the promotion threshold, so borderline heat does not
			// flap between read points.
			if _, was := old.paths[it.Key]; was && it.Count >= g.cfg.HotThreshold/2 {
				keep = true
			}
		}
		if keep {
			next[it.Key] = struct{}{}
		}
	}
	if old != nil {
		for p := range next {
			if _, was := old.paths[p]; !was {
				g.promotions.Add(1)
			}
		}
		for p := range old.paths {
			if _, still := next[p]; !still {
				g.demotions.Add(1)
			}
		}
	} else {
		g.promotions.Add(int64(len(next)))
	}
	g.hotSet.Store(&hotSet{paths: next})
}

// noteLoadHint samples the replica's queue-delay hint at reply time —
// the load signal a remote deployment piggybacks on every RPC reply
// (remoteResponse.Load) — and publishes it for the router.
func (g *Group) noteLoadHint(idx int) {
	g.loadHints[idx].Store(int64(g.nodes[idx].LoadHint()))
}

// loadHint returns the last piggybacked queue-delay estimate for a
// replica.
func (g *Group) loadHint(idx int) time.Duration {
	return time.Duration(g.loadHints[idx].Load())
}

// LoadHint reports the group's current bottleneck queue delay — the
// largest per-replica EWMA queue-delay estimate. Deployments piggyback
// this on reply envelopes (remoteResponse.Load) so clients and proxies
// can route and back off without a separate health RPC. Sampled live so
// it works with the hotspot tier off.
func (g *Group) LoadHint() time.Duration {
	var max time.Duration
	for i, rf := range g.rafts {
		if rf.Stopped() {
			continue
		}
		if h := g.nodes[i].LoadHint(); h > max {
			max = h
		}
	}
	return max
}

// pickTwo returns two distinct candidate positions from a candidate
// count using one tick of the group's round-robin counter
// (deterministic fairness, no RNG on the hot path): the tick's position
// and the next one, so the first pick rotates over every candidate.
func (g *Group) pickTwo(n int) (int, int) {
	a := int(g.rr.Add(1) % uint64(n))
	return a, (a + 1) % n
}

// pickLoadAware chooses among the candidate replica indices with
// power-of-two-choices on the piggybacked load hints: sample two,
// take the less loaded. When hints tie — always with Workers 0, and on
// any replica that is not saturated — the first pick wins, so the
// choice rotates over every candidate.
func (g *Group) pickLoadAware(cands []int) int {
	if len(cands) == 0 {
		return -1
	}
	ai, bi := g.pickTwo(len(cands))
	a, b := cands[ai], cands[bi]
	if g.loadHint(b) < g.loadHint(a) {
		return b
	}
	return a
}

// hotCandidates returns the running non-leader replica indices — the
// targets eligible to serve hot-set reads.
// scratch avoids a per-lookup allocation.
func (g *Group) hotCandidates(scratch []int) []int {
	li := g.leaderIndex()
	cands := scratch[:0]
	for i, rf := range g.rafts {
		if i == li || rf.Stopped() {
			continue
		}
		cands = append(cands, i)
	}
	return cands
}

// maybeShed implements the router's backpressure: when a shed threshold
// is configured and every eligible read target's load hint exceeds it,
// the request is dropped now with a typed ErrOverloaded carrying the
// smallest observed queue delay as the retry-after hint — piling more
// work onto saturated replicas only grows everyone's tail latency.
func (g *Group) maybeShed() error {
	if g.cfg.ShedThreshold <= 0 {
		return nil
	}
	minHint := time.Duration(-1)
	for i, rf := range g.rafts {
		if rf.Stopped() {
			continue
		}
		h := g.loadHint(i)
		if h <= g.cfg.ShedThreshold {
			return nil // at least one replica has headroom
		}
		if minHint < 0 || h < minHint {
			minHint = h
		}
	}
	if minHint < 0 {
		return nil // no live replicas: let the retry loop handle it
	}
	g.sheds.Add(1)
	return types.Overloaded(minHint)
}

// maxReplicas sizes the stack scratch space for candidate selection;
// larger groups spill to a heap append transparently.
const maxReplicas = 16

// HotspotStats is the hot-path management slice of the group's heat
// snapshot.
type HotspotStats struct {
	Enabled    bool     `json:"enabled"`
	HotSet     []string `json:"hot_set,omitempty"`
	Promotions int64    `json:"promotions"`
	Demotions  int64    `json:"demotions"`
	HotReads   int64    `json:"hot_reads"`
	Fallbacks  int64    `json:"fallbacks"`
	Sheds      int64    `json:"sheds"`
	// LoadHints is the per-replica piggybacked queue-delay estimate in
	// microseconds (router input).
	LoadHints []float64 `json:"load_hints_us,omitempty"`
}

// Hotspot snapshots the hot-set management state.
func (g *Group) Hotspot() HotspotStats {
	s := HotspotStats{
		Enabled:    g.cfg.Hotspot,
		HotSet:     g.HotSet(),
		Promotions: g.promotions.Load(),
		Demotions:  g.demotions.Load(),
		HotReads:   g.hotReads.Load(),
		Fallbacks:  g.hotFalls.Load(),
		Sheds:      g.sheds.Load(),
	}
	if g.cfg.Hotspot {
		s.LoadHints = make([]float64, len(g.nodes))
		for i := range g.nodes {
			s.LoadHints[i] = float64(g.loadHint(i)) / float64(time.Microsecond)
		}
	}
	return s
}

// stopHotspot shuts the promotion loop down (idempotent).
func (g *Group) stopHotspot() {
	g.hotOnce.Do(func() {
		if g.hotStop != nil {
			close(g.hotStop)
		}
	})
	g.hotWG.Wait()
}
