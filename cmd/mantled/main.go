// Command mantled runs a Mantle deployment and exposes a COSS-style
// RESTful HTTP gateway on the proxy layer, mirroring Figure 1 of the
// paper: applications issue HTTP requests against object paths and the
// (stateless) proxy resolves them through IndexNode and TafDB.
//
// API:
//
//	PUT    /ns/<path>             create an object (body = content; only
//	                              its size is retained by the metadata
//	                              service — the data plane is stubbed)
//	GET    /ns/<path>             stat an object (JSON)
//	GET    /ns/<path>?list=1      list a directory (JSON)
//	DELETE /ns/<path>             delete an object
//	DELETE /ns/<path>?dir=1       remove an empty directory
//	POST   /ns/<path>?op=mkdir    create a directory (ancestors created)
//	POST   /ns/<path>?op=rename&dst=/new/path   atomic directory rename
//
// Example:
//
//	mantled -addr :8080 &
//	curl -X POST 'localhost:8080/ns/data/train?op=mkdir'
//	curl -X PUT --data-binary @file 'localhost:8080/ns/data/train/s0'
//	curl 'localhost:8080/ns/data/train?list=1'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"mantle"
	"mantle/internal/fsck"
	"mantle/internal/trace"
)

type server struct {
	cl *mantle.Cluster
	dr *mantle.DR
}

// active returns the cluster currently serving traffic: in DR mode the
// primary before failover and the promoted secondary after.
func (s *server) active() *mantle.Cluster {
	if s.dr != nil {
		return s.dr.Active()
	}
	return s.cl
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.Int("shards", 8, "TafDB shards")
		replicas  = flag.Int("replicas", 3, "IndexNode replicas")
		learners  = flag.Int("learners", 0, "IndexNode learners")
		follower  = flag.Bool("follower-read", true, "serve lookups from followers")
		rtt       = flag.Duration("rtt", 0, "simulated per-RPC round trip")
		rpcAddr   = flag.String("rpc-addr", "", "optional binary-protocol listen address (mantle.Dial clients)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
		hotspot   = flag.Bool("hotspot", false, "elastic hotspot management: promote hot directories to follower and learner lease reads, load-aware routing (saturated replicas queue requests; none are shed)")
		hotThresh = flag.Int64("hot-threshold", 0, "decayed read count that promotes a directory (0 = production default; lower it for small deployments)")
		drOn      = flag.Bool("dr", false, "host a second, asynchronously replicated site for disaster recovery (see /admin/failover)")
		wanRTT    = flag.Duration("wan-rtt", 0, "inter-site round trip for the -dr replication link")
		walSync   = flag.Duration("wal-sync", 0, "attach a write-ahead log to every TafDB shard with this per-sync latency")
	)
	flag.Parse()

	cfg := mantle.Config{
		Shards: *shards, Replicas: *replicas, Learners: *learners,
		FollowerRead: *follower, RTT: *rtt, Hotspot: *hotspot,
		HotThreshold: *hotThresh, WALSyncCost: *walSync,
	}
	s := &server{}
	if *drOn {
		dr, err := mantle.NewDR(cfg, mantle.DRConfig{WANRTT: *wanRTT})
		if err != nil {
			log.Fatal(err)
		}
		defer dr.Stop()
		s.dr = dr
		s.cl = dr.Primary()
	} else {
		cl, err := mantle.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Stop()
		s.cl = cl
	}
	mux := s.routes()
	if *pprofOn {
		// Profiling is opt-in: the pprof handlers expose stack and heap
		// internals, so they stay off unless explicitly requested (see
		// README "Profiling the hot path").
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("mantled: pprof enabled on %s/debug/pprof/", *addr)
	}
	if *rpcAddr != "" {
		l, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mantled: binary protocol on %s", *rpcAddr)
		serve := func() error { return mantle.Serve(l, s.cl) }
		if s.dr != nil {
			serve = func() error { return s.dr.Serve(l) } // follows /admin/failover
		}
		go func() { log.Println("rpc server:", serve()) }()
	}
	mode := "single-site"
	if *drOn {
		mode = "dr (async secondary attached)"
	}
	log.Printf("mantled: %d shards, %d replicas (+%d learners), %s, listening on %s",
		*shards, *replicas, *learners, mode, *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// routes builds the gateway's whole HTTP surface, every handler acting on
// s.active(), so after a failover none of them touches the demoted
// primary. The admin routes:
//
//	GET  /admin/migrate/plan?max=N        propose up to N moves
//	POST /admin/migrate?path=/d&shard=2   move /d's row range to shard 2
//	POST /admin/scrub?rounds=N     online consistency scrub (default 2
//	                               rounds; transient in-flight states
//	                               are intersected away)
//	POST /admin/rebuild-index      rebuild the IndexNode table from
//	                               TafDB rows on the active site
//	POST /admin/failover           promote the secondary (-dr only);
//	                               the gateway reroutes to it
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ns/", s.handle)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// One registry, two renderings: grep-able "name value" text, or
		// with ?format=prometheus the 0.0.4 exposition a scraper ingests.
		w.Header().Set("Content-Type", "text/plain")
		reg := s.active().Core().Metrics()
		if r.URL.Query().Get("format") == "prometheus" {
			_ = reg.WritePrometheus(w)
			return
		}
		_ = reg.Write(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		core := s.active().Core()
		switch {
		case r.URL.Query().Get("format") == "text":
			w.Header().Set("Content-Type", "text/plain")
			core.WriteStatus(w)
		case s.dr != nil:
			writeJSON(w, http.StatusOK, map[string]any{"site": core.Status(), "repl": s.dr.ReplStatus()})
		default:
			writeJSON(w, http.StatusOK, core.Status())
		}
	})
	mux.HandleFunc("/trace", s.traceOp)
	mux.HandleFunc("/fsck", func(w http.ResponseWriter, r *http.Request) {
		writeReport(w, fsck.Check(s.active().Core()))
	})
	mux.HandleFunc("GET /admin/migrate/plan", func(w http.ResponseWriter, r *http.Request) {
		if max, ok := intParam(w, r, "max"); ok {
			writeJSON(w, http.StatusOK, s.active().PlanMigrations(max))
		}
	})
	mux.HandleFunc("POST /admin/migrate", func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Query().Get("path")
		shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
		if path == "" || err != nil {
			http.Error(w, "migrate requires path and shard", http.StatusBadRequest)
			return
		}
		moved, err := s.active().MigrateDir(path, shard)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"path": path, "shard": shard, "rows": moved})
	})
	mux.HandleFunc("POST /admin/scrub", func(w http.ResponseWriter, r *http.Request) {
		if rounds, ok := intParam(w, r, "rounds"); ok {
			writeReport(w, fsck.Scrub(s.active().Core(), rounds))
		}
	})
	mux.HandleFunc("POST /admin/rebuild-index", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"entries": s.active().Core().RebuildIndex()})
	})
	mux.HandleFunc("POST /admin/failover", func(w http.ResponseWriter, r *http.Request) {
		if s.dr == nil {
			http.Error(w, "failover requires -dr", http.StatusBadRequest)
			return
		}
		rep := s.dr.Failover()
		log.Printf("mantled: secondary promoted (discarded %d records, %d index entries)",
			rep.Discarded, rep.IndexEntries)
		writeJSON(w, http.StatusOK, rep)
	})
	return mux
}

// writeJSON is the tail of every JSON answer outside /ns/.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeReport answers a consistency report: 409 when it found issues.
func writeReport(w http.ResponseWriter, rep *fsck.Report) {
	status := http.StatusOK
	if !rep.OK() {
		status = http.StatusConflict
	}
	writeJSON(w, status, rep)
}

// traceOp runs one traced lookup against ?path= (default "/") and
// returns the recorded span tree. With ?format=chrome the response is
// Chrome trace_event JSON, loadable in chrome://tracing or Perfetto.
func (s *server) traceOp(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	if path == "" {
		path = "/"
	}
	core := s.active().Core()
	tr, ctx := trace.New("lookup " + path)
	_, opErr := core.Lookup(core.Caller().BeginTraced(ctx), path)
	tr.Finish()

	if r.URL.Query().Get("format") == "chrome" {
		data, err := tr.ChromeJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	if opErr != nil {
		fmt.Fprintf(w, "# op error: %v\n", opErr)
	}
	tr.WriteTree(w)
}

func (s *server) handle(w http.ResponseWriter, r *http.Request) {
	path := "/" + strings.TrimPrefix(r.URL.Path, "/ns/")
	c := s.active().Client()
	start := time.Now()
	var err error
	var payload any
	switch r.Method {
	case http.MethodPut:
		n, _ := io.Copy(io.Discard, r.Body)
		var inf mantle.Info
		inf, err = c.Create(path, n)
		payload = inf
	case http.MethodGet:
		switch {
		case r.URL.Query().Get("list") != "":
			if r.URL.Query().Get("limit") != "" {
				limit, ok := intParam(w, r, "limit")
				if !ok {
					return
				}
				var page []mantle.Info
				var next string
				page, next, err = c.ListPage(path, r.URL.Query().Get("after"), limit)
				w.Header().Set("X-Mantle-Next", next)
				payload = page
				break
			}
			payload, err = c.List(path)
		case r.URL.Query().Get("dir") != "":
			payload, err = c.StatDir(path)
		default:
			payload, err = c.Stat(path)
		}
	case http.MethodDelete:
		if r.URL.Query().Get("dir") != "" {
			err = c.Rmdir(path)
		} else {
			err = c.Delete(path)
		}
		payload = map[string]string{"deleted": path}
	case http.MethodPost:
		switch op := r.URL.Query().Get("op"); op {
		case "mkdir":
			err = c.MkdirAll(path)
			payload = map[string]string{"created": path}
		case "rename":
			dst := r.URL.Query().Get("dst")
			if dst == "" {
				http.Error(w, "rename requires dst", http.StatusBadRequest)
				return
			}
			err = c.Rename(path, dst)
			payload = map[string]string{"renamed": path, "to": dst}
		default:
			http.Error(w, "unknown op "+op, http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mantle-Latency", time.Since(start).String())
	_ = json.NewEncoder(w).Encode(payload)
}

// intParam parses the optional integer query parameter name (absent
// means 0). A value that is not an integer is answered with 400 and
// ok=false rather than silently read as the default.
func intParam(w http.ResponseWriter, r *http.Request, name string) (n int, ok bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		http.Error(w, name+" must be an integer", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// statusOf maps an error's kind — the classification remote clients see
// — onto its HTTP status.
func statusOf(err error) int {
	switch mantle.ErrorKind(err) {
	case "notfound":
		return http.StatusNotFound
	case "exists", "notempty", "loop":
		return http.StatusConflict
	case "permission":
		return http.StatusForbidden
	case "overloaded":
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}
