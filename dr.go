package mantle

import (
	"net"
	"time"

	"mantle/internal/core"
	"mantle/internal/repl"
)

// DRConfig parameterises the replication plane of a two-site
// deployment.
type DRConfig struct {
	// WANRTT is the inter-site round trip charged per shipped batch of
	// log records (0 = in-process speed).
	WANRTT time.Duration
}

// DR is a two-site disaster-recovery deployment: a primary cluster
// serving all traffic and a passive secondary receiving the primary
// shards' HLC-stamped WAL records over an asynchronous WAN link. See
// DESIGN.md §11.
type DR struct {
	sites     *core.Sites
	primary   *Cluster
	secondary *Cluster
}

// NewDR starts both sites and the replication link.
func NewDR(cfg Config, dr DRConfig) (*DR, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSites(core.SitesConfig{
		Site:   cc,
		RTT:    cfg.RTT,
		WANRTT: dr.WANRTT,
	})
	if err != nil {
		return nil, err
	}
	s.StartReplication()
	return &DR{
		sites:     s,
		primary:   &Cluster{m: s.Primary},
		secondary: &Cluster{m: s.Secondary},
	}, nil
}

// Primary is the site serving client traffic.
func (d *DR) Primary() *Cluster { return d.primary }

// Secondary is the passive replica site.
func (d *DR) Secondary() *Cluster { return d.secondary }

// Active returns the site that should serve traffic: the secondary
// after Failover, the primary before.
func (d *DR) Active() *Cluster {
	if d.sites.Promoted() {
		return d.secondary
	}
	return d.primary
}

// Serve is Serve against the active site: a request that arrives after
// Failover — on a new connection or one accepted before it — is executed
// by the promoted secondary.
func (d *DR) Serve(l net.Listener) error { return serve(l, d.Active) }

// Sites exposes the underlying two-site bundle (chaos tests, fsck).
func (d *DR) Sites() *core.Sites { return d.sites }

// Failover promotes the secondary: replication stops, buffered records
// that never became applicable are discarded and counted, and the
// secondary's index and ID allocator are rebuilt from the replicated
// rows so it serves reads and writes immediately. Idempotent.
func (d *DR) Failover() core.FailoverReport { return d.sites.Failover() }

// ReplStatus reports link lag and the secondary's applied watermarks.
func (d *DR) ReplStatus() map[string]core.ReplStatus {
	return map[string]core.ReplStatus{
		"primary":   d.sites.ReplStatus("primary"),
		"secondary": d.sites.ReplStatus("secondary"),
	}
}

// LinkStats returns the shipping-side link statistics.
func (d *DR) LinkStats() repl.LinkStats { return d.sites.LinkStats() }

// Stop tears down the link and both sites.
func (d *DR) Stop() { d.sites.Stop() }
