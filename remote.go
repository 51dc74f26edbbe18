package mantle

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/types"
)

// This file implements the remote access protocol: a compact
// gob-encoded request/response stream over TCP, so clients in other
// processes can drive a Mantle deployment without the HTTP gateway's
// overhead. Serve attaches a listener to a Cluster; Dial returns a
// RemoteClient, which is a Client whose requests travel that stream.
//
// The protocol is one request, one response, in order, per connection;
// a RemoteClient serialises calls per connection and can be pooled by
// the application. Errors travel as stable kind strings (ErrorKind) so
// sentinel matching (errors.Is) survives the wire.

// remoteRequest is one operation as every Client states it — handed to
// Cluster.exec directly in process, gob-encoded by a RemoteClient.
type remoteRequest struct {
	Op    string // create|delete|stat|statdir|mkdir|mkdirall|rmdir|rename|list|listpage|lookup
	Path  string
	Dst   string
	Size  int64
	After string
	Limit int
}

// remoteResponse is exec's reply; ErrKind, ErrMsg, Load and RetryAfter
// are filled only on the wire. Load and RetryAfter were added
// after the first protocol revision; gob ignores fields the peer does
// not know, so old clients and servers interoperate with new ones (see
// TestRemoteEnvelopeGobCompat).
type remoteResponse struct {
	ErrKind string // "" on success; sentinel kind otherwise
	ErrMsg  string
	Info    Info
	Infos   []Info
	Next    string
	Stats   OpStats
	// Load piggybacks the serving deployment's bottleneck queue-delay
	// EWMA (nanoseconds) on every reply, so callers can route or back
	// off without a separate health RPC.
	Load int64
	// RetryAfter carries the backoff hint (nanoseconds) when ErrKind is
	// "overloaded".
	RetryAfter int64
}

// kindErr rebuilds a sentinel-wrapped error from its wire kind: the
// inverse of ErrorKind over the same table.
func kindErr(kind, msg string, retryAfter time.Duration) error {
	switch kind {
	case "":
		return nil
	case "overloaded":
		return fmt.Errorf("%s: %w", msg, types.Overloaded(retryAfter))
	}
	for _, k := range errorKinds {
		if k.kind == kind {
			return fmt.Errorf("%s: %w", msg, k.err)
		}
	}
	return errors.New(msg)
}

// Serve accepts remote-protocol connections on l and dispatches them
// against the cluster until l is closed. It returns the listener's
// accept error (net.ErrClosed after a clean shutdown).
func Serve(l net.Listener, cl *Cluster) error {
	return serve(l, func() *Cluster { return cl })
}

// serve is Serve against whichever cluster active names when a request
// arrives, so connections accepted before a failover follow it.
func serve(l net.Listener, active func() *Cluster) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, active)
	}
}

func serveConn(conn net.Conn, active func() *Cluster) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req remoteRequest
		if err := dec.Decode(&req); err != nil {
			return // EOF or broken peer
		}
		cl := active()
		resp, err := cl.exec(&req)
		// The one place an error is flattened: its kind, text and backoff
		// hint cross the wire and call rebuilds it on the far side.
		if err != nil {
			resp.ErrKind, resp.ErrMsg = ErrorKind(err), err.Error()
			resp.RetryAfter = int64(types.RetryAfter(err))
		}
		resp.Load = int64(cl.m.Index().LoadHint())
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// RemoteClient is a Client whose requests cross a TCP connection to a
// Serve endpoint: same operations, same sentinel errors. Safe for
// concurrent use; calls serialise on the single connection (pool
// RemoteClients for parallelism).
type RemoteClient struct {
	Client
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	load atomic.Int64 // last piggybacked server load hint (ns)
}

// Dial connects to a Serve endpoint.
func Dial(addr string) (*RemoteClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &RemoteClient{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
	}
	r.do = r.call
	return r, nil
}

// Close tears the connection down.
func (r *RemoteClient) Close() error { return r.conn.Close() }

// call is the transport: one request out, one response back, the error
// rebuilt from its kind. The response is never nil.
func (r *RemoteClient) call(req *remoteRequest) (*remoteResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := &remoteResponse{}
	if err := r.enc.Encode(req); err != nil {
		return resp, fmt.Errorf("remote send: %w", err)
	}
	if err := r.dec.Decode(resp); err != nil {
		if errors.Is(err, io.EOF) {
			return resp, fmt.Errorf("remote: connection closed: %w", err)
		}
		return resp, fmt.Errorf("remote recv: %w", err)
	}
	r.load.Store(resp.Load)
	return resp, kindErr(resp.ErrKind, resp.ErrMsg, time.Duration(resp.RetryAfter))
}

// LoadHint returns the server's load estimate piggybacked on the most
// recent reply: the deployment's bottleneck queue delay. Zero means an
// idle server (or no completed call yet). Pools use it to prefer the
// least-loaded endpoint and to pace retries after ErrOverloaded.
func (r *RemoteClient) LoadHint() time.Duration {
	return time.Duration(r.load.Load())
}
