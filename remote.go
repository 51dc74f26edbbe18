package mantle

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/types"
	"mantle/internal/wire"
)

// This file implements the remote access protocol: length-framed binary
// requests and responses over TCP (DESIGN.md "Remote wire format"), so
// clients in other processes can drive a Mantle deployment without the
// HTTP gateway's overhead. Serve attaches a listener to a Cluster; Dial
// returns a RemoteClient, which is a Client whose requests travel that
// stream.
//
// The protocol is one request, one response, in order, per connection;
// a RemoteClient serialises calls per connection and can be pooled by
// the application. Errors travel as stable kind strings (ErrorKind) so
// sentinel matching (errors.Is) survives the wire.

const (
	// preface opens every connection, client to server, once: a magic and
	// the protocol version. A peer speaking anything else is refused at
	// connect instead of being parsed as frames.
	preface = "MNT\x01"
	// A request carries at most three paths; a response carries a listing,
	// and List has no page limit.
	maxRequestFrame  = 1 << 20
	maxResponseFrame = 1 << 28
)

// remoteRequest is one operation as every Client states it — handed to
// Cluster.exec directly in process, framed by a RemoteClient.
type remoteRequest struct {
	Op    string // one of wireOps
	Path  string
	Dst   string
	Size  int64
	After string
	Limit int
}

// wireOps numbers the operations on the wire. Like the fields of both
// messages it is append-only: a code, once shipped, keeps its meaning.
var wireOps = [...]string{1: "create", "delete", "stat", "statdir", "mkdir", "mkdirall", "rmdir", "rename", "list", "listpage", "lookup"}

// appendRequest writes req's body, refusing an op the wire has no code
// for before anything is written.
func appendRequest(w *wire.Writer, req *remoteRequest) error {
	code := len(wireOps) - 1
	for code > 0 && wireOps[code] != req.Op {
		code--
	}
	if code == 0 {
		return fmt.Errorf("remote: unknown op %q", req.Op)
	}
	w.Byte(byte(code))
	w.String(req.Path)
	w.String(req.Dst)
	w.Varint(req.Size)
	w.String(req.After)
	w.Varint(int64(req.Limit))
	return nil
}

// decodeRequest is appendRequest's inverse. Bytes after the last field it
// knows are a newer peer's fields and are ignored. The strings alias one
// copy of body.
func decodeRequest(body []byte, req *remoteRequest) error {
	r := wire.NewAliasingReader(body)
	code := int(r.Byte())
	*req = remoteRequest{Path: r.String(), Dst: r.String(), Size: r.Varint(), After: r.String(), Limit: int(r.Varint())}
	if err := r.Err(); err != nil {
		return err
	}
	if code == 0 || code >= len(wireOps) {
		return fmt.Errorf("remote: unknown op code %d", code)
	}
	req.Op = wireOps[code]
	return nil
}

// remoteResponse is exec's reply; ErrKind, ErrMsg, Load and RetryAfter
// are filled only on the wire. Load and RetryAfter were added after the
// first protocol revision and are the frame's optional tail: a frame
// that ends before them decodes with both zero (see
// TestRemoteEnvelopeCompat).
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

func appendInfo(w *wire.Writer, in *Info) {
	w.String(in.Path)
	w.Bool(in.IsDir)
	w.Varint(in.Size)
	w.Varint(in.Entries)
	// The zero time has no UnixNano; a flag keeps it IsZero on the far side.
	w.Bool(!in.ModTime.IsZero())
	if !in.ModTime.IsZero() {
		w.Varint(in.ModTime.UnixNano())
	}
}

func readInfo(r *wire.Reader) Info {
	in := Info{Path: r.String(), IsDir: r.Bool(), Size: r.Varint(), Entries: r.Varint()}
	if r.Bool() {
		in.ModTime = time.Unix(0, r.Varint())
	}
	return in
}

// minInfoBytes is the shortest encoded Info: what a listing's count is
// checked against before the slice is made.
const minInfoBytes = 5

func appendResponse(w *wire.Writer, resp *remoteResponse) {
	w.String(resp.ErrKind)
	w.String(resp.ErrMsg)
	appendInfo(w, &resp.Info)
	// Count + 1, so a nil listing (0) and an empty one (1) stay distinct.
	if resp.Infos == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(uint64(len(resp.Infos)) + 1)
	}
	for i := range resp.Infos {
		appendInfo(w, &resp.Infos[i])
	}
	w.String(resp.Next)
	w.Varint(int64(resp.Stats.RTTs))
	w.Varint(int64(resp.Stats.Retries))
	w.Varint(int64(resp.Stats.Lookup))
	w.Varint(int64(resp.Stats.Execute))
	w.Varint(resp.Load)
	w.Varint(resp.RetryAfter)
}

// decodeResponse is appendResponse's inverse, with decodeRequest's rule
// for trailing bytes; the strings alias one copy of body.
func decodeResponse(body []byte, resp *remoteResponse) error {
	r := wire.NewAliasingReader(body)
	*resp = remoteResponse{ErrKind: r.String(), ErrMsg: r.String(), Info: readInfo(&r)}
	if n := r.Uvarint(); n > uint64(r.Len()/minInfoBytes)+1 {
		return fmt.Errorf("remote: listing of %d entries in a %d-byte frame", n-1, len(body))
	} else if n > 0 {
		resp.Infos = make([]Info, n-1)
		for i := range resp.Infos {
			resp.Infos[i] = readInfo(&r)
		}
	}
	resp.Next = r.String()
	resp.Stats = OpStats{RTTs: int(r.Varint()), Retries: int(r.Varint()), Lookup: time.Duration(r.Varint()), Execute: time.Duration(r.Varint())}
	// The optional tail: absent from a peer that predates the fields.
	if r.Len() > 0 {
		resp.Load = r.Varint()
	}
	if r.Len() > 0 {
		resp.RetryAfter = r.Varint()
	}
	return r.Err()
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
	br := bufio.NewReader(conn)
	if got, err := br.Peek(len(preface)); err != nil || string(got) != preface {
		return // not this protocol, or not this version of it
	}
	br.Discard(len(preface))
	var (
		body []byte
		req  remoteRequest
		w    wire.Writer
	)
	for {
		var err error
		if body, err = wire.ReadFrame(br, body, maxRequestFrame); err != nil {
			return // EOF, a broken peer, or a frame over the limit
		}
		cl := active()
		resp := &remoteResponse{}
		// A well-framed body that does not decode is answered, not dropped:
		// the stream is still in step.
		if err = decodeRequest(body, &req); err == nil {
			resp, err = cl.exec(&req)
		}
		// The one place an error is flattened: its kind, text and backoff
		// hint cross the wire and call rebuilds it on the far side.
		if err != nil {
			resp.ErrKind, resp.ErrMsg = ErrorKind(err), err.Error()
			resp.RetryAfter = int64(types.RetryAfter(err))
		}
		resp.Load = int64(cl.m.Index().LoadHint())
		w.BeginFrame()
		appendResponse(&w, resp)
		if _, err := conn.Write(w.Frame()); err != nil {
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
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	w      wire.Writer
	body   []byte       // reused response frame
	broken error        // first transport error; the stream is unusable after it
	load   atomic.Int64 // last piggybacked server load hint (ns)
}

// Dial connects to a Serve endpoint.
func Dial(addr string) (*RemoteClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(preface)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: preface: %w", err)
	}
	r := &RemoteClient{conn: conn, br: bufio.NewReader(conn)}
	r.do = r.call
	return r, nil
}

// Close tears the connection down.
func (r *RemoteClient) Close() error { return r.conn.Close() }

// call is the transport: one request out, one response back, the error
// rebuilt from its kind. The response is never nil. A transport error —
// short write, EOF mid-frame, an oversized or undecodable frame — leaves
// the stream out of step, so the first one closes the connection and
// every later call returns it.
func (r *RemoteClient) call(req *remoteRequest) (*remoteResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := &remoteResponse{}
	if r.broken != nil {
		return resp, fmt.Errorf("remote: connection broken: %w", r.broken)
	}
	r.w.BeginFrame()
	if err := appendRequest(&r.w, req); err != nil {
		return resp, err // nothing was written: the stream is intact
	}
	_, err := r.conn.Write(r.w.Frame())
	if err == nil {
		if r.body, err = wire.ReadFrame(r.br, r.body, maxResponseFrame); err == nil {
			err = decodeResponse(r.body, resp)
		}
	}
	if err != nil {
		r.broken = err
		r.conn.Close()
		return &remoteResponse{}, fmt.Errorf("remote: round trip: %w", err)
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
