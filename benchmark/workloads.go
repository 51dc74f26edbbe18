package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"mantle"
	"mantle/internal/api"
	"mantle/internal/types"
	"mantle/internal/workload"
)

// opKind is one metadata operation the load generators issue.
type opKind uint8

const (
	opStat opKind = iota
	opLookup
	opList
	opCreate
	opDelete
	opMkdir
	opRename
	numOpKinds
)

// opClass groups kinds the way a caller thinks of them.
type opClass uint8

const (
	clsRead opClass = iota
	clsWrite
	clsRename
	numClasses
)

var classNames = [numClasses]string{"read", "write", "rename"}

func (k opKind) class() opClass {
	switch k {
	case opStat, opLookup, opList:
		return clsRead
	case opRename:
		return clsRename
	default:
		return clsWrite
	}
}

// op is one generated request: the program only ever sees these paths.
type op struct {
	kind opKind
	path string
	dst  string // rename destination
	size int64  // create size
}

// listPage is the ListPage limit every workload uses.
const listPage = 32

// objectSize is the size every benchmark-created object carries: a
// function of the path alone, so any Stat or ListPage result can be
// checked without remembering what was written.
func objectSize(pathHash uint64) int64 { return 1 + int64(pathHash%65536) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString continues an FNV-1a hash over s, so a directory's hash is
// computed once and each child costs only its own name.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func pathHash(p string) uint64 { return hashString(fnvOffset, p) }

// namespace is the initial population of one workload plus what the
// generators and the correctness check need to know about it.
type namespace struct {
	// dirs are the directories ops target.
	dirs []string
	// objs[d] are the populated objects of dirs[d]; they are never
	// deleted, so a Stat of one can never miss.
	objs [][]string
	// fixedSize, when non-zero, is the size of every populated object
	// (workload.BuildScale populates 64 KiB objects).
	fixedSize int64
	// scale is the stat_wide shape; objects are addressed by index.
	scale   *workload.ScaleNamespace
	entries int
	// hot are write_durable's shared create/mkdir directories.
	hot []string
	// initial maps every checked directory to its populated child names
	// (the clients' private directories are tracked by the clients).
	initial map[string][]string
}

// spine is the shared depth-8 prefix that puts the leaf directories of
// the hot namespaces at depth 10.
var spine = []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}

const baseID = types.InodeID(1 << 20)

// buildLeaves populates groups x perGroup leaf directories at depth 10,
// each with objsPerDir objects, through the bulk-load path.
func buildLeaves(cl *mantle.Cluster, groups, perGroup, objsPerDir int) (*namespace, error) {
	ns := &namespace{initial: make(map[string][]string)}
	var dirs []api.PopDir
	var objects []api.PopObject
	next := baseID
	pid, path := types.RootID, ""
	for _, comp := range spine {
		path += "/" + comp
		dirs = append(dirs, api.PopDir{Path: path, ID: next, Pid: pid, Perm: types.PermAll})
		pid = next
		next++
	}
	objNames := make([]string, objsPerDir)
	for k := range objNames {
		objNames[k] = "o" + strconv.Itoa(k)
	}
	for g := 0; g < groups; g++ {
		gpath := path + "/g" + strconv.Itoa(g)
		gid := next
		next++
		dirs = append(dirs, api.PopDir{Path: gpath, ID: gid, Pid: pid, Perm: types.PermAll})
		for d := 0; d < perGroup; d++ {
			dpath := gpath + "/d" + strconv.Itoa(d)
			did := next
			next++
			dirs = append(dirs, api.PopDir{Path: dpath, ID: did, Pid: gid, Perm: types.PermAll})
			objs := make([]string, objsPerDir)
			for k, name := range objNames {
				objs[k] = dpath + "/" + name
				objects = append(objects, api.PopObject{Pid: did, Name: name, Size: objectSize(pathHash(objs[k]))})
			}
			ns.dirs = append(ns.dirs, dpath)
			ns.objs = append(ns.objs, objs)
			ns.initial[dpath] = objNames
		}
	}
	ns.entries = len(dirs) + len(objects)
	return ns, cl.Core().Populate(dirs, objects)
}

// buildWide bulk-loads the shape-only namespace of the Fig 19a sweep.
func buildWide(cl *mantle.Cluster, entries int) (*namespace, error) {
	sn := workload.BuildScale(entries)
	ns := &namespace{scale: sn, entries: sn.Entries(), fixedSize: 64 << 10}
	for g := 0; g < sn.Groups; g++ {
		for d := 0; d < sn.DirsPerGroup; d++ {
			ns.dirs = append(ns.dirs, sn.DirPath(g, d))
		}
	}
	return ns, sn.Populate(cl.Core())
}

// durableA and durableB are the parents write_durable's private
// directories are renamed between.
const durableA, durableB = "/wd/pa", "/wd/pb"

// buildDurable makes the small tree write_durable writes into: four
// shared hot directories and the two rename parents.
func buildDurable(cl *mantle.Cluster) (*namespace, error) {
	ns := &namespace{initial: map[string][]string{durableA: nil, durableB: nil}, entries: 7}
	c := cl.Client()
	for _, p := range []string{"/wd", durableA, durableB} {
		if err := c.Mkdir(p); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 4; i++ {
		p := "/wd/hot" + strconv.Itoa(i)
		if err := c.Mkdir(p); err != nil {
			return nil, err
		}
		ns.hot = append(ns.hot, p)
		ns.initial[p] = nil
	}
	return ns, nil
}

// client is one closed-loop load generator: it issues its next op when
// the previous one has returned.
type client struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
	name []byte // scratch for generated names

	// live holds the objects this client created and has not deleted;
	// made the directories it created. Both feed the final listing check.
	live []string
	made []string
	// priv are the two parents the client's private directory moves
	// between (empty when the workload never renames); privAtB says
	// which one it currently sits in.
	priv    [2]string
	privAtB bool
}

// privateName is the name of client id's private directory.
func privateName(id int) string { return "c" + strconv.Itoa(id) }

// newClient derives the client's random stream from (seed, workload,
// client), so the same seed always produces the same requests.
func newClient(seed uint64, wl string, id int) *client {
	return &client{id: id, rng: rand.New(rand.NewPCG(seed, pathHash(wl)+uint64(id)))}
}

// childName builds "<prefix><client>-<seq>" with one allocation.
func (c *client) childName(dir string, prefix byte) string {
	b := append(c.name[:0], dir...)
	b = append(b, '/', prefix)
	b = strconv.AppendInt(b, int64(c.id), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(c.seq), 10)
	c.seq++
	c.name = b
	return string(b)
}

func (c *client) create(dir string) op {
	p := c.childName(dir, 'c')
	return op{kind: opCreate, path: p, size: objectSize(pathHash(p))}
}

// privatePath is where the client's private directory currently is.
func (c *client) privatePath(atB bool) string {
	parent := c.priv[0]
	if atB {
		parent = c.priv[1]
	}
	return parent + "/" + privateName(c.id)
}

// renamePrivate moves the client's private directory to the other parent.
func (c *client) renamePrivate() op {
	return op{kind: opRename, path: c.privatePath(c.privAtB), dst: c.privatePath(!c.privAtB)}
}

// workloadDef is one of the five fixed workloads.
type workloadDef struct {
	name string
	why  string
	cfg  mantle.Config
	// clients returns the closed-loop client count for nproc CPUs.
	clients func(nproc int) int
	// cpuBound says the clients are limited by the host's CPU, so that
	// the timings are scaled by the host reference (hostref.go).
	cpuBound bool
	// tcp serves the namespace over mantle.Serve and drives it through
	// mantle.Dial connections.
	tcp bool
	// mutates says whether fsck and the full listing check run after it.
	mutates bool
	build   func(cl *mantle.Cluster, entries int) (*namespace, error)
	// private returns the two parents client id's private directory is
	// renamed between; nil when the workload has no renames.
	private func(ns *namespace, id int) [2]string
	next    func(ns *namespace, c *client) op
}

// spareOne leaves one CPU to the collector and to the replicas' own
// goroutines (raft tickers, appliers, the TCP server side), so that the
// process as a whole never has more runnable threads than the host has
// CPUs: one client on the 2-vCPU reference VM.
func spareOne(nproc int) int { return max(1, nproc-1) }

// defaultCfg is what mantled starts when given no flags: the numbers
// measure the program's software path, not time.Sleep.
var defaultCfg = mantle.Config{Shards: 8, Replicas: 3, FollowerRead: true}

func buildHot(cl *mantle.Cluster, _ int) (*namespace, error) { return buildLeaves(cl, 8, 8, 16) }

var workloads = []workloadDef{
	{
		name:     "stat_hot",
		why:      "100% Stat over 1024 objects in 64 depth-10 dirs: fits every cache, so proxy, rpc, netsim and trace overhead is all there is",
		cfg:      defaultCfg,
		clients:  spareOne,
		cpuBound: true,
		build:    buildHot,
		next: func(ns *namespace, c *client) op {
			objs := ns.objs[c.rng.IntN(len(ns.objs))]
			return op{kind: opStat, path: objs[c.rng.IntN(len(objs))]}
		},
	},
	{
		name:     "stat_wide",
		why:      "1M-entry bulk-loaded namespace, uniform 80% Stat / 10% Lookup / 10% ListPage: far larger than the CPU cache, so layout dominates",
		cfg:      defaultCfg,
		clients:  spareOne,
		cpuBound: true,
		build:    buildWide,
		next: func(ns *namespace, c *client) op {
			switch r := c.rng.IntN(10); {
			case r < 8:
				i := c.rng.IntN(ns.scale.Objects())
				return op{kind: opStat, path: ns.scale.ObjPath(i)}
			case r < 9:
				return op{kind: opLookup, path: ns.dirs[c.rng.IntN(len(ns.dirs))]}
			default:
				return op{kind: opList, path: ns.dirs[c.rng.IntN(len(ns.dirs))]}
			}
		},
	},
	{
		name: "churn_mixed",
		why:  "Zipf(1.1) over 256 dirs, 75% Stat / 10% ListPage / 10% Create / 3% Mkdir / 2% dir Rename, leader reads: writes beside reads on the same caches and locks",
		// Leader-only reads. Under FollowerRead a read that follows a
		// directory mutation waits up to a 50 ms heartbeat for its
		// follower to learn the commit index, so throughput is the count
		// of such waits: 18-27% apart between seeds and p99 flipping
		// between 1 ms and 47 ms, which no bound can gate. Read from the
		// leader, the same layers are CPU-bound and steady; the wait
		// itself stays measured by the follower_churn probe.
		cfg:      mantle.Config{Shards: 8, Replicas: 3},
		clients:  spareOne,
		cpuBound: true,
		mutates:  true,
		build:    func(cl *mantle.Cluster, _ int) (*namespace, error) { return buildLeaves(cl, 16, 16, 16) },
		// Each client's private directory ping-pongs between two of the
		// hottest directories, so every rename invalidates hot paths.
		private: func(ns *namespace, id int) [2]string { return [2]string{ns.dirs[2*id], ns.dirs[2*id+1]} },
		next: func(ns *namespace, c *client) op {
			if c.zipf == nil {
				c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(len(ns.dirs)-1))
			}
			d := int(c.zipf.Uint64())
			switch r := c.rng.IntN(100); {
			case r < 75:
				return op{kind: opStat, path: ns.objs[d][c.rng.IntN(len(ns.objs[d]))]}
			case r < 85:
				return op{kind: opList, path: ns.dirs[d]}
			case r < 95:
				return c.create(ns.dirs[d])
			case r < 98:
				return op{kind: opMkdir, path: c.childName(ns.dirs[d], 'm')}
			default:
				return c.renamePrivate()
			}
		},
	},
	{
		name: "write_durable",
		why:  "1 ms WAL and raft fsyncs, 8 clients, 60% Create / 20% Mkdir / 20% dir Rename: WAL group commit, raft batching and batched 2PC",
		cfg: mantle.Config{Shards: 8, Replicas: 3, FollowerRead: false,
			WALSyncCost: time.Millisecond, FsyncCost: time.Millisecond},
		// Eight clients on any host: they spend >90% of their time parked
		// on simulated syncs, and group commit has nothing to coalesce at 2.
		clients: func(int) int { return 8 },
		mutates: true,
		build:   func(cl *mantle.Cluster, _ int) (*namespace, error) { return buildDurable(cl) },
		private: func(*namespace, int) [2]string { return [2]string{durableA, durableB} },
		next: func(ns *namespace, c *client) op {
			switch r := c.rng.IntN(100); {
			case r < 60:
				return c.create(ns.hot[c.rng.IntN(len(ns.hot))])
			case r < 80:
				return op{kind: opMkdir, path: c.childName(ns.hot[c.rng.IntN(len(ns.hot))], 'm')}
			default:
				return c.renamePrivate()
			}
		},
	},
	{
		name:     "tcp_front",
		why:      "stat_hot namespace over mantle.Serve/Dial on loopback, 80% Stat / 10% ListPage / 5% Create / 5% Delete: the gob codec and socket path",
		cfg:      defaultCfg,
		clients:  spareOne,
		cpuBound: true,
		tcp:      true,
		mutates:  true,
		build:    buildHot,
		next: func(ns *namespace, c *client) op {
			d := c.rng.IntN(len(ns.dirs))
			switch r := c.rng.IntN(100); {
			case r < 80:
				return op{kind: opStat, path: ns.objs[d][c.rng.IntN(len(ns.objs[d]))]}
			case r < 90:
				return op{kind: opList, path: ns.dirs[d]}
			case r < 95 || len(c.live) == 0:
				return c.create(ns.dirs[d])
			default:
				return op{kind: opDelete, path: c.live[len(c.live)-1]}
			}
		},
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// applied records a successful mutation in the client's books, which
// the final listing check replays.
func (c *client) applied(o *op) {
	switch o.kind {
	case opCreate:
		c.live = append(c.live, o.path)
	case opDelete:
		c.live = c.live[:len(c.live)-1]
	case opMkdir:
		c.made = append(c.made, o.path)
	case opRename:
		c.privAtB = !c.privAtB
	}
}
