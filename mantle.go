// Package mantle is the public API of this reproduction of "Mantle:
// Efficient Hierarchical Metadata Management for Cloud Object Storage
// Services" (SOSP 2025). It assembles a complete Mantle deployment — a
// per-namespace IndexNode Raft group over a sharded TafDB on a simulated
// cluster fabric — and exposes the COSS-style metadata operations through
// stateless Client handles, the way applications drive the proxy layer
// in the paper.
//
// Quick start:
//
//	cl, err := mantle.New(mantle.Config{})
//	if err != nil { ... }
//	defer cl.Stop()
//	c := cl.Client()
//	_ = c.MkdirAll("/data/train")
//	_, _ = c.Create("/data/train/sample-0", 4096)
//	info, _ := c.Stat("/data/train/sample-0")
//
// The internal packages implement every subsystem from scratch (Raft,
// the sharded transactional store, delta records, TopDirPathCache, the
// Invalidator) plus the three baseline systems the paper compares
// against; see DESIGN.md.
package mantle

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// Config selects the deployment shape. The zero value is a sensible
// single-process development deployment (zero network latency, 4 TafDB
// shards, 1 IndexNode replica).
type Config struct {
	// Shards is the TafDB shard count.
	Shards int
	// Replicas is the IndexNode Raft group's voter count.
	Replicas int
	// Learners adds read replicas to the IndexNode group.
	Learners int
	// K is the TopDirPathCache truncation distance (default 3, the
	// production value).
	K int
	// DisableCache turns TopDirPathCache off.
	DisableCache bool
	// FollowerRead serves lookups from followers and learners.
	FollowerRead bool
	// RTT injects a per-RPC network round-trip latency (0 = in-process
	// speed; benchmarks use 200µs to model the paper's testbed).
	RTT time.Duration
	// DeltaRecords selects the directory-attribute update strategy:
	// "auto" (default; activate under contention), "always", or "off".
	DeltaRecords string
	// ProxyCache adds a proxy-side metadata cache on top of
	// TopDirPathCache (the paper's Figure 20 configuration; off by
	// default, as in the paper's design).
	ProxyCache bool
	// FsyncCost simulates the IndexNode Raft log's per-sync disk
	// latency (0 = no disk model; the paper's experiments use 400µs).
	FsyncCost time.Duration
	// WALSyncCost, when positive, attaches a write-ahead log with the
	// given per-sync latency to every TafDB shard (group commit +
	// crash recovery by replay).
	WALSyncCost time.Duration
	// Hotspot enables elastic hotspot management on the IndexNode group:
	// directories whose read heat crosses a threshold are promoted into
	// a hot-set served by followers and learners inside their raft
	// read grants, and reads route to the least-loaded replica via
	// piggybacked load hints. Nothing is shed: once every replica
	// saturates, requests queue. Implies FollowerRead machinery for
	// the hot paths; consistent ReadIndex reads continue to serve
	// everything else.
	Hotspot bool
	// HotThreshold overrides the decayed read count at which a
	// directory is promoted into the hot-set (0 = the production
	// default, 512). Demotion applies at half the threshold. Lower it
	// when the deployment's absolute read rate is small relative to
	// production — benchmarks and tests do.
	HotThreshold int64
}

// Cluster is a running Mantle deployment for one namespace.
type Cluster struct {
	m *core.Mantle
}

// coreConfig maps the public Config onto the internal per-site
// configuration. The Fabric field is left nil: single-site New installs
// one fabric, while the DR constructor gives each site its own.
func coreConfig(cfg Config) (core.Config, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1 // indexnode's own default is the paper's 3
	}
	var delta tafdb.DeltaMode
	switch cfg.DeltaRecords {
	case "", "auto":
		delta = tafdb.DeltaAuto
	case "always":
		delta = tafdb.DeltaAlways
	case "off":
		delta = tafdb.DeltaOff
	default:
		return core.Config{}, fmt.Errorf("mantle: unknown DeltaRecords mode %q", cfg.DeltaRecords)
	}
	return core.Config{
		ProxyCache: cfg.ProxyCache,
		TafDB: tafdb.Config{
			Shards:      cfg.Shards,
			Delta:       delta,
			WALSyncCost: cfg.WALSyncCost,
			Batch2PC:    true,
		},
		Index: indexnode.Config{
			Voters:       cfg.Replicas,
			Learners:     cfg.Learners,
			K:            cfg.K,
			CacheEnabled: !cfg.DisableCache,
			FollowerRead: cfg.FollowerRead,
			Raft: raft.Config{
				FsyncCost:    cfg.FsyncCost,
				BatchEnabled: true,
				Pipeline:     true,
			},
			Hotspot:      cfg.Hotspot,
			HotThreshold: cfg.HotThreshold,
		},
	}, nil
}

// New starts a deployment.
func New(cfg Config) (*Cluster, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	cc.Fabric = netsim.NewFabric(netsim.Config{RTT: cfg.RTT})
	m, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	return &Cluster{m: m}, nil
}

// Stop shuts the deployment down.
func (c *Cluster) Stop() { c.m.Stop() }

// Client returns a stateless client handle (the proxy-layer view).
// Clients are cheap; any number may be used concurrently.
func (c *Cluster) Client() *Client { return &Client{do: c.exec} }

// Info describes an entry.
type Info struct {
	Path    string
	IsDir   bool
	Size    int64
	Entries int64 // child count for directories
	ModTime time.Time
}

// OpStats reports the cost of one call, returned by the *WithStats
// variants: RPC round trips and retries (useful in examples to show the
// single-RPC lookup property).
type OpStats struct {
	RTTs    int
	Retries int
	Lookup  time.Duration
	Execute time.Duration
}

// Client issues metadata operations. Safe for concurrent use; per-call
// stats are returned by the *WithStats variants.
//
// Every method builds one request and hands it to do: Cluster.exec for a
// client of an in-process deployment, whose errors are the core's own
// chains, and RemoteClient's TCP round trip for a dialled one.
type Client struct {
	do func(*remoteRequest) (*remoteResponse, error)
}

// Sentinel errors surfaced by the client.
var (
	ErrNotFound   = types.ErrNotFound
	ErrExists     = types.ErrExists
	ErrNotEmpty   = types.ErrNotEmpty
	ErrLoop       = types.ErrLoop
	ErrPermission = types.ErrPermission
	// ErrOverloaded is returned when the deployment sheds a request under
	// saturation; types.RetryAfter extracts the suggested backoff.
	ErrOverloaded = types.ErrOverloaded
)

// errorKinds is the one classification of the errors a deployment
// returns: the stable kind string that crosses the wire and selects
// mantled's HTTP status, and — first row of each kind — the sentinel a
// remote client's error is rebuilt around. A path that names an entry of
// the wrong type is, to a caller, a path that is not there.
var errorKinds = []struct {
	kind string
	err  error
}{
	{"notfound", types.ErrNotFound},
	{"notfound", types.ErrNotDir},
	{"notfound", types.ErrIsDir},
	{"exists", types.ErrExists},
	{"notempty", types.ErrNotEmpty},
	{"loop", types.ErrLoop},
	{"permission", types.ErrPermission},
	{"overloaded", types.ErrOverloaded},
}

// ErrorKind classifies an error returned by a Client or RemoteClient:
// "" for nil, then "notfound", "exists", "notempty", "loop",
// "permission" or "overloaded" for the sentinels above, and "internal"
// for everything else.
func ErrorKind(err error) string {
	if err == nil {
		return ""
	}
	for _, k := range errorKinds {
		if errors.Is(err, k.err) {
			return k.kind
		}
	}
	return "internal"
}

func info(path string, e types.Entry) Info {
	out := Info{Path: pathutil.Clean(path), IsDir: e.Kind == types.KindDir, ModTime: e.Attr.MTime}
	if out.IsDir {
		out.Entries = e.Attr.LinkCount
	} else {
		out.Size = e.Attr.Size
	}
	return out
}

// exec runs one request against the deployment: the one place an op name
// meets the core. It returns the core's error unchanged, so an in-process
// caller can match anything the core can return.
func (c *Cluster) exec(req *remoteRequest) (*remoteResponse, error) {
	m := c.m
	op := m.Caller().Begin()
	resp := &remoteResponse{}
	var r types.Result
	var err error
	switch req.Op {
	case "create":
		r, err = m.Create(op, req.Path, req.Size)
		resp.Info = info(req.Path, r.Entry)
	case "delete":
		r, err = m.Delete(op, req.Path)
	case "stat":
		r, err = m.ObjStat(op, req.Path)
		resp.Info = info(req.Path, r.Entry)
	case "statdir":
		r, err = m.DirStat(op, req.Path)
		resp.Info = info(req.Path, r.Entry)
	case "mkdir":
		r, err = m.Mkdir(op, req.Path)
	case "mkdirall":
		cur := ""
		for _, comp := range pathutil.Split(req.Path) {
			cur += "/" + comp
			if r, err = m.Mkdir(m.Caller().Begin(), cur); err != nil && ErrorKind(err) != "exists" {
				return resp, err
			}
		}
		err = nil
	case "rmdir":
		r, err = m.Rmdir(op, req.Path)
	case "rename":
		r, err = m.DirRename(op, req.Path, req.Dst)
	case "list", "listpage":
		limit := req.Limit
		if req.Op == "list" {
			limit = math.MaxInt
		}
		var entries []types.Entry
		r, entries, resp.Next, err = m.ReadDirPage(op, req.Path, req.After, limit)
		if err == nil {
			dir := pathutil.Clean(req.Path)
			resp.Infos = make([]Info, 0, len(entries))
			for _, e := range entries {
				resp.Infos = append(resp.Infos, info(dir+"/"+e.Name, e))
			}
		}
	case "lookup":
		r, err = m.Lookup(op, req.Path)
	default:
		return resp, fmt.Errorf("remote: unknown op %q", req.Op)
	}
	resp.Stats = OpStats{
		RTTs:    r.RTTs,
		Retries: r.Retries,
		Lookup:  r.Phases[types.PhaseLookup] + r.Phases[types.PhaseLoopDetect],
		Execute: r.Phases[types.PhaseExecute],
	}
	return resp, err
}

// path issues the request shape most operations share: an op on one path.
func (c *Client) path(op, path string) (*remoteResponse, error) {
	return c.do(&remoteRequest{Op: op, Path: path})
}

// Create inserts an object of the given size.
func (c *Client) Create(path string, size int64) (Info, error) {
	inf, _, err := c.CreateWithStats(path, size)
	return inf, err
}

// CreateWithStats is Create returning per-op cost.
func (c *Client) CreateWithStats(path string, size int64) (Info, OpStats, error) {
	resp, err := c.do(&remoteRequest{Op: "create", Path: path, Size: size})
	return resp.Info, resp.Stats, err
}

// Delete removes an object.
func (c *Client) Delete(path string) error {
	_, err := c.path("delete", path)
	return err
}

// Stat returns an object's metadata.
func (c *Client) Stat(path string) (Info, error) {
	inf, _, err := c.StatWithStats(path)
	return inf, err
}

// StatWithStats is Stat returning per-op cost.
func (c *Client) StatWithStats(path string) (Info, OpStats, error) {
	resp, err := c.path("stat", path)
	return resp.Info, resp.Stats, err
}

// StatDir returns a directory's metadata (merging live delta records).
func (c *Client) StatDir(path string) (Info, error) {
	resp, err := c.path("statdir", path)
	return resp.Info, err
}

// Mkdir creates a directory; the parent must exist.
func (c *Client) Mkdir(path string) error {
	_, err := c.path("mkdir", path)
	return err
}

// MkdirAll creates a directory and any missing ancestors.
func (c *Client) MkdirAll(path string) error {
	_, err := c.path("mkdirall", path)
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error {
	_, err := c.path("rmdir", path)
	return err
}

// Rename moves directory src (and its subtree) to dst atomically,
// running the paper's single-RPC loop-detection protocol on IndexNode.
func (c *Client) Rename(src, dst string) error {
	_, err := c.RenameWithStats(src, dst)
	return err
}

// RenameWithStats is Rename returning per-op cost.
func (c *Client) RenameWithStats(src, dst string) (OpStats, error) {
	resp, err := c.do(&remoteRequest{Op: "rename", Path: src, Dst: dst})
	return resp.Stats, err
}

// List returns a directory's children.
func (c *Client) List(path string) ([]Info, error) {
	resp, err := c.path("list", path)
	return resp.Infos, err
}

// ListPage returns up to limit children of path whose names sort after
// the continuation token `after` (empty to start). The second return is
// the token for the next page, empty when the listing is complete —
// the COSS ListObjects pagination contract.
func (c *Client) ListPage(path, after string, limit int) ([]Info, string, error) {
	resp, err := c.do(&remoteRequest{Op: "listpage", Path: path, After: after, Limit: limit})
	return resp.Infos, resp.Next, err
}

// Lookup resolves a directory path in a single IndexNode RPC and reports
// the op's cost.
func (c *Client) Lookup(path string) (OpStats, error) {
	resp, err := c.path("lookup", path)
	return resp.Stats, err
}

// Core exposes the underlying deployment for advanced use (experiments,
// stats). Most applications never need it.
func (c *Cluster) Core() *core.Mantle { return c.m }

// MigrateDir moves directory path's TafDB row range to the given shard
// online (the admin surface behind mantled's /admin/migrate endpoint).
// Returns the number of rows moved. Reads keep being served throughout;
// writers to the directory stall for the copy window then land on the
// new home. On error nothing moved.
func (c *Cluster) MigrateDir(path string, shard int) (int, error) {
	r, err := c.m.Lookup(c.m.Caller().Begin(), path)
	if err != nil {
		return 0, err
	}
	return c.m.DB().MigrateDir(c.m.Caller().Begin(), r.Entry.ID, shard)
}

// PlanMigrations proposes up to max directory moves that would flatten
// the shard load distribution, hottest first, using the deployment's
// heat sketches and shard load accounting. Pure read — pass each plan
// to MigrateDir to execute it.
func (c *Cluster) PlanMigrations(max int) []tafdb.MigrationPlan {
	return c.m.DB().PlanMigrations(max)
}
