package mantle

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"mantle/internal/wire"
)

// reqBody is req as appendRequest frames it, without the length prefix.
func reqBody(t testing.TB, req *remoteRequest) []byte {
	t.Helper()
	var w wire.Writer
	w.BeginFrame()
	if err := appendRequest(&w, req); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(w.Frame()[4:])
}

// frame prefixes body with its length, as it travels.
func frame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// wireTime is the ModTime a seed stands for: zero for every fourth seed,
// otherwise an instant in the form the decoder builds, so DeepEqual holds.
func wireTime(ns int64) time.Time {
	if ns%4 == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func TestRemoteWireRoundTripQuick(t *testing.T) {
	request := func(op uint8, path, dst, after string, size int64, limit int) bool {
		in := remoteRequest{Op: wireOps[1+int(op)%(len(wireOps)-1)], Path: path, Dst: dst, Size: size, After: after, Limit: limit}
		var out remoteRequest
		return decodeRequest(reqBody(t, &in), &out) == nil && out == in
	}
	if err := quick.Check(request, nil); err != nil {
		t.Error(err)
	}

	type seed struct {
		Path          string
		IsDir         bool
		Size, Entries int64
		NS            int64
	}
	toInfo := func(s seed) Info {
		return Info{Path: s.Path, IsDir: s.IsDir, Size: s.Size, Entries: s.Entries, ModTime: wireTime(s.NS)}
	}
	response := func(kind, msg, next string, one seed, many []seed, nilInfos bool, stats OpStats, load, wait int64) bool {
		in := remoteResponse{ErrKind: kind, ErrMsg: msg, Info: toInfo(one), Next: next, Stats: stats, Load: load, RetryAfter: wait}
		if !nilInfos {
			in.Infos = make([]Info, len(many)) // empty, not nil, when many is
			for i, s := range many {
				in.Infos[i] = toInfo(s)
			}
		}
		var out remoteResponse
		if err := decodeResponse(respBody(&in), &out); err != nil || !reflect.DeepEqual(out, in) {
			t.Logf("err %v\n got %+v\nwant %+v", err, out, in)
			return false
		}
		return true
	}
	if err := quick.Check(response, nil); err != nil {
		t.Error(err)
	}

	// The corners quick may not reach.
	thousand := make([]seed, 1000)
	for i := range thousand {
		thousand[i] = seed{Path: "/d/é-" + strings.Repeat("x", i%7), Size: int64(-i), NS: int64(i)}
	}
	for name, ok := range map[string]bool{
		"nil listing":      response("", "", "", seed{}, nil, true, OpStats{}, 0, 0),
		"empty listing":    response("", "", "", seed{}, nil, false, OpStats{}, 0, 0),
		"one entry":        response("", "", "n", seed{}, []seed{{Path: "/目录/ファイル", NS: 1}}, false, OpStats{}, 0, 0),
		"thousand entries": response("", "", "", seed{}, thousand, false, OpStats{}, 0, 0),
		"extremes": response("internal", "bad \x00 byte", "", seed{Path: "/", IsDir: true, Size: math.MinInt64, Entries: math.MaxInt64, NS: math.MinInt64 + 1},
			nil, true, OpStats{RTTs: -1, Retries: math.MaxInt32, Lookup: -time.Second, Execute: math.MaxInt64}, math.MinInt64, math.MaxInt64),
	} {
		if !ok {
			t.Errorf("%s did not round-trip", name)
		}
	}

	// A ModTime crosses as its instant: monotonic reading and zone stay
	// behind, and the zero time stays zero.
	now := time.Now().UTC()
	var out remoteResponse
	if err := decodeResponse(respBody(&remoteResponse{Info: Info{ModTime: now}, Infos: []Info{{}}}), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Info.ModTime.Equal(now) || !out.Infos[0].ModTime.IsZero() {
		t.Fatalf("ModTime %v → %v; zero → %v", now, out.Info.ModTime, out.Infos[0].ModTime)
	}
}

// TestRemoteWireMarshalError: an op the wire has no code for is refused by
// the encoder, before a byte reaches the connection.
func TestRemoteWireMarshalError(t *testing.T) {
	var w wire.Writer
	w.BeginFrame()
	for _, op := range []string{"zap", "", "Stat"} {
		if err := appendRequest(&w, &remoteRequest{Op: op, Path: "/p"}); err == nil {
			t.Errorf("op %q encoded", op)
		}
	}
	if len(w.Frame()) != 4 {
		t.Fatalf("a refused request left %d bytes in the frame", len(w.Frame())-4)
	}
}

// fakeServer accepts one connection, checks the preface, reads one request
// and hands the connection to answer; it reports on done whether the client
// then hung up (true) or sent a second request (false).
func fakeServer(t *testing.T, answer func(net.Conn)) (addr string, done chan bool) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done = make(chan bool, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		got := make([]byte, len(preface))
		if _, err := io.ReadFull(br, got); err != nil || string(got) != preface {
			t.Errorf("preface = %q, %v", got, err)
			return
		}
		if _, err := wire.ReadFrame(br, nil, maxRequestFrame); err != nil {
			t.Errorf("first request: %v", err)
			return
		}
		answer(conn)
		_, err = wire.ReadFrame(br, nil, maxRequestFrame)
		done <- err != nil
	}()
	return l.Addr().String(), done
}

// TestRemoteClientPoisonedAfterShortFrame: once a reply has failed to
// arrive whole the stream is out of step — the next bytes are the rest of
// some frame, not the start of one — so the client must close and keep
// failing, not read a later reply as the answer to the wrong call.
func TestRemoteClientPoisonedAfterShortFrame(t *testing.T) {
	valid := frame(respBody(&remoteResponse{Info: Info{Path: "/other", Size: 42}}))
	// Promises a whole body, delivers five bytes of one whose first string
	// claims 200.
	half := append(binary.LittleEndian.AppendUint32(nil, uint32(len(valid)-4)), 200, 'x', 'x', 'x', 'x')
	for name, answer := range map[string]func(net.Conn){
		"half a frame, then a valid one": func(c net.Conn) { c.Write(half); c.Write(valid) },
		"half a frame, then EOF":         func(c net.Conn) { c.Write(half); c.(*net.TCPConn).CloseWrite() },
		"a frame over the limit":         func(c net.Conn) { c.Write([]byte{1, 0, 0, 0x10, 0}) },
	} {
		addr, done := fakeServer(t, answer)
		rc, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		inf, first := rc.Stat("/o")
		if first == nil || ErrorKind(first) != "internal" || inf != (Info{}) {
			t.Fatalf("%s: Stat = %+v, %v; want a transport error and no data", name, inf, first)
		}
		inf, second := rc.Stat("/o")
		if second == nil || !strings.Contains(second.Error(), "remote: connection broken: ") || inf != (Info{}) {
			t.Fatalf("%s: second Stat = %+v, %v; want the connection reported broken", name, inf, second)
		}
		if cause := errors.Unwrap(second); cause == nil || !strings.Contains(first.Error(), cause.Error()) {
			t.Fatalf("%s: second error %q does not carry the first, %q", name, second, first)
		}
		select {
		case hungUp := <-done:
			if !hungUp {
				t.Fatalf("%s: the client sent a second request down the broken stream", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the client kept the broken connection open", name)
		}
		rc.Close()
	}
}

// TestServeRejectsMalformedFrames: what Serve does with bytes no
// RemoteClient would send. Breaking the framing costs the connection;
// a well-framed body it cannot use is answered and costs nothing.
func TestServeRejectsMalformedFrames(t *testing.T) {
	cl := newCluster(t, Config{})
	if err := cl.Client().Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = Serve(l, cl) }()

	statdir := reqBody(t, &remoteRequest{Op: "statdir", Path: "/d"})
	for _, c := range []struct {
		name     string
		send     []byte // after the preface, unless it is the preface under test
		preface  string
		wantKind string // of the reply; "closed" when there must be none
	}{
		{"wrong preface", frame(statdir), "MNT\x02", "closed"},
		{"a gob stream", frame(statdir), "\x2f\xff\x81\x03", "closed"},
		{"oversize length", binary.LittleEndian.AppendUint32(nil, maxRequestFrame+1), preface, "closed"},
		{"largest length, then EOF", binary.LittleEndian.AppendUint32(nil, maxRequestFrame), preface, "closed"},
		{"truncated body", frame(statdir[:len(statdir)-3]), preface, "internal"},
		{"empty body", frame(nil), preface, "internal"},
		{"unknown op", frame(append([]byte{200}, statdir[1:]...)), preface, "internal"},
		{"op zero", frame(append([]byte{0}, statdir[1:]...)), preface, "internal"},
		{"trailing garbage", frame(append(bytes.Clone(statdir), 0xba, 0xad)), preface, ""},
	} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		conn.Write([]byte(c.preface))
		conn.Write(c.send)
		if c.wantKind == "closed" {
			conn.(*net.TCPConn).CloseWrite()
			// A reset is the connection closed too: the server may close
			// with our bytes still unread, and the kernel then answers RST.
			b, err := io.ReadAll(br)
			if errors.Is(err, syscall.ECONNRESET) {
				err = nil
			}
			if err != nil || len(b) != 0 {
				t.Errorf("%s: server answered %d bytes (err %v), want the connection closed", c.name, len(b), err)
			}
			conn.Close()
			continue
		}
		// The reply, then a good request on the same connection.
		for i, want := range []string{c.wantKind, ""} {
			body, err := wire.ReadFrame(br, nil, maxResponseFrame)
			var resp remoteResponse
			if err == nil {
				err = decodeResponse(body, &resp)
			}
			if err != nil || resp.ErrKind != want {
				t.Errorf("%s: reply %d = kind %q (%s), err %v; want kind %q", c.name, i, resp.ErrKind, resp.ErrMsg, err, want)
				break
			}
			if want == "" && !resp.Info.IsDir {
				t.Errorf("%s: reply %d carries no directory: %+v", c.name, i, resp.Info)
			}
			conn.Write(frame(statdir))
		}
		conn.Close()
	}
}

// TestRemoteAllocs pins the front door's allocation budget, counted
// process-wide (client, server goroutine and the op itself): a warm Stat
// is the op's own four plus a request, two responses and one string per
// direction; a page adds the listing and the op's per-entry work, not a
// string per path.
func TestRemoteAllocs(t *testing.T) {
	rc := benchRemoteRig(t)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := rc.Stat("/b/o"); err != nil {
			t.Fatal(err)
		}
	}); n > 9 {
		t.Errorf("Stat round trip: %v allocs, want <= 9", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if page, _, err := rc.ListPage("/b/d", "", 32); err != nil || len(page) != 16 {
			t.Fatal(len(page), err)
		}
	}); n > 30 {
		t.Errorf("ListPage(32) of 16 entries: %v allocs, want <= 30", n)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []remoteRequest{
		{Op: "stat", Path: "/a/b"},
		{Op: "create", Path: "/a/ö", Size: -1},
		{Op: "rename", Path: "/a", Dst: "/b"},
		{Op: "listpage", Path: "/a", After: "k", Limit: 32},
	} {
		f.Add(reqBody(f, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{200, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req remoteRequest
		if decodeRequest(data, &req) != nil {
			return
		}
		var again remoteRequest
		if err := decodeRequest(reqBody(t, &req), &again); err != nil || again != req {
			t.Fatalf("re-decode = %+v, %v; want %+v", again, err, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []remoteResponse{
		{Info: Info{Path: "/a/o", Size: 7, ModTime: time.Unix(0, 1700000000123456789)}, Stats: OpStats{RTTs: 2}},
		{ErrKind: "overloaded", ErrMsg: "shed", Load: 5, RetryAfter: 9},
		{Infos: []Info{}, Next: ""},
		{Infos: []Info{{Path: "/d/a", IsDir: true, Entries: 3}, {Path: "/d/ö", Size: -4}}, Next: "ö"},
	} {
		f.Add(respBody(&resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count far beyond the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp remoteResponse
		if decodeResponse(data, &resp) != nil {
			return
		}
		var again remoteResponse
		if err := decodeResponse(respBody(&resp), &again); err != nil || !reflect.DeepEqual(again, resp) {
			t.Fatalf("re-decode = %+v, %v; want %+v", again, err, resp)
		}
	})
}
