package mantle

import (
	"fmt"
	"io"
	"net"
	"testing"
)

// benchRemoteRig serves a cluster holding /b/o and sixteen entries under
// /b/d on loopback and dials it.
func benchRemoteRig(tb testing.TB) *RemoteClient {
	tb.Helper()
	cl, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	go func() { _ = Serve(l, cl) }()
	rc, err := Dial(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rc.Close() })
	if err := rc.MkdirAll("/b/d"); err != nil {
		tb.Fatal(err)
	}
	if _, err := rc.Create("/b/o", 1); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := rc.Create(fmt.Sprintf("/b/d/o-%02d", i), int64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return rc
}

// The three lines the front door's cost is re-derived from (go test
// -bench 'Remote|Loopback' -cpu 2 .): a Stat and a 16-entry page over
// Serve/Dial, and the floor under both — a 64-byte ping-pong on the same
// loopback with no codec and no namespace behind it.
func BenchmarkRemoteStat(b *testing.B) {
	rc := benchRemoteRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Stat("/b/o"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteListPage(b *testing.B) {
	rc := benchRemoteRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if page, _, err := rc.ListPage("/b/d", "", 32); err != nil || len(page) != 16 {
			b.Fatal(len(page), err)
		}
	}
}

func BenchmarkLoopbackPingPong(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
	}
}
