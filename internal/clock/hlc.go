// Package clock implements Hybrid Logical Clocks (Kulkarni et al.,
// "Logical Physical Clocks and Consistent Snapshots in Globally
// Distributed Databases"). A Timestamp combines a physical wall reading
// with a logical counter, so timestamps are causally consistent (a
// receive always exceeds the send) while staying close to physical
// time even across sites with skewed clocks. The replication plane
// (internal/repl) stamps every oplog record with an HLC and resolves
// cross-site conflicts last-writer-wins on it, with the site id as the
// deterministic tie-break.
package clock

import (
	"fmt"
	"sync"
	"time"
)

// Timestamp is one HLC reading. The zero Timestamp sorts before every
// real one.
type Timestamp struct {
	// Wall is the physical component, nanoseconds since the Unix epoch.
	Wall int64
	// Logical is the logical component, reset whenever Wall advances.
	Logical int32
	// Site identifies the clock that issued the timestamp; it breaks
	// ties deterministically when two sites issue the same (Wall,
	// Logical) — without it, last-writer-wins would be order-dependent.
	Site uint16
}

// IsZero reports whether t is the zero timestamp.
func (t Timestamp) IsZero() bool { return t == Timestamp{} }

// Compare orders timestamps: Wall, then Logical, then Site. It returns
// -1, 0, or +1. Site participates so the order is total across sites:
// two distinct events never compare equal unless issued by the same
// clock at the same reading.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Wall != o.Wall:
		if t.Wall < o.Wall {
			return -1
		}
		return 1
	case t.Logical != o.Logical:
		if t.Logical < o.Logical {
			return -1
		}
		return 1
	case t.Site != o.Site:
		if t.Site < o.Site {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports t < o under Compare's total order.
func (t Timestamp) Less(o Timestamp) bool { return t.Compare(o) < 0 }

// String renders the timestamp for logs and /status.
func (t Timestamp) String() string {
	if t.IsZero() {
		return "0.0@0"
	}
	return fmt.Sprintf("%d.%d@%d", t.Wall, t.Logical, t.Site)
}

// Clock is one site's hybrid logical clock. Safe for concurrent use.
type Clock struct {
	site uint16
	wall func() int64

	mu   sync.Mutex
	last Timestamp
}

// New creates a clock for the given site backed by the system wall
// clock.
func New(site uint16) *Clock {
	return NewWithWall(site, func() int64 { return time.Now().UnixNano() })
}

// NewWithWall creates a clock with an injected wall-clock reading —
// tests use it to simulate skewed or frozen physical clocks.
func NewWithWall(site uint16, wall func() int64) *Clock {
	return &Clock{site: site, wall: wall}
}

// Now issues a timestamp for a local or send event. Successive calls
// are strictly increasing even if the physical clock stalls or jumps
// backwards: the logical component absorbs the difference.
func (c *Clock) Now() Timestamp {
	w := c.wall()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w > c.last.Wall {
		c.last = Timestamp{Wall: w}
	} else {
		c.last.Logical++
	}
	c.last.Site = c.site
	return c.last
}

// Observe merges a remote timestamp into the clock (a receive event)
// and issues a fresh local timestamp that exceeds both the remote
// timestamp and every timestamp this clock issued before — the HLC
// receive rule that makes happens-before visible in timestamp order.
func (c *Clock) Observe(remote Timestamp) Timestamp {
	w := c.wall()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case w > c.last.Wall && w > remote.Wall:
		c.last = Timestamp{Wall: w}
	case remote.Wall > c.last.Wall:
		c.last = Timestamp{Wall: remote.Wall, Logical: remote.Logical + 1}
	case c.last.Wall > remote.Wall:
		c.last.Logical++
	default: // equal walls: take the larger logical and advance it
		if remote.Logical > c.last.Logical {
			c.last.Logical = remote.Logical
		}
		c.last.Logical++
	}
	c.last.Site = c.site
	return c.last
}
