package mantle

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/types"
)

// TestClientMethodSetsMatch: a RemoteClient is a Client over TCP, so every
// exported Client method exists on it with the same signature.
func TestClientMethodSetsMatch(t *testing.T) {
	local, remote := reflect.TypeOf(&Client{}), reflect.TypeOf(&RemoteClient{})
	if local.NumMethod() == 0 {
		t.Fatal("Client has no exported methods")
	}
	for i := 0; i < local.NumMethod(); i++ {
		m := local.Method(i)
		rm, ok := remote.MethodByName(m.Name)
		if !ok {
			t.Errorf("RemoteClient lacks %s", m.Name)
			continue
		}
		// Compare everything after the receiver.
		sig := func(f reflect.Type) (s []reflect.Type) {
			for i := 1; i < f.NumIn(); i++ {
				s = append(s, f.In(i))
			}
			s = append(s, nil)
			for i := 0; i < f.NumOut(); i++ {
				s = append(s, f.Out(i))
			}
			return s
		}
		if !slices.Equal(sig(m.Type), sig(rm.Type)) {
			t.Errorf("%s: Client %v, RemoteClient %v", m.Name, m.Type, rm.Type)
		}
	}
}

// TestDRServeFollowsFailover: a connection accepted before the failover is
// executed by the promoted secondary after it — not by the demoted
// primary, which no gateway reads any more.
func TestDRServeFollowsFailover(t *testing.T) {
	dr, err := NewDR(Config{}, DRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dr.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = dr.Serve(l) }()
	rc, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })

	if err := rc.Mkdir("/before"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := dr.LinkStats(); st.Shipped == 0 || st.LagEntries != 0; st = dr.LinkStats() {
		if time.Now().After(deadline) {
			t.Fatalf("link did not drain: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	dr.Failover()
	if err := rc.Mkdir("/after"); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if _, err := dr.Secondary().Client().StatDir("/after"); err != nil {
		t.Errorf("post-failover write is not on the promoted secondary: %v", err)
	}
	if _, err := dr.Primary().Client().StatDir("/after"); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-failover write landed on the demoted primary (statdir err = %v)", err)
	}
	if _, err := rc.StatDir("/before"); err != nil {
		t.Errorf("replicated directory unreadable over TCP after failover: %v", err)
	}
}

// TestListIsUnpagedListPage: past the 1,000-entry default page, List
// returns what ListPage returns with no limit, locally and over TCP.
func TestListIsUnpagedListPage(t *testing.T) {
	cl := newCluster(t, Config{})
	rc, c := serveAndDial(t, cl), cl.Client()
	if err := c.Mkdir("/big"); err != nil {
		t.Fatal(err)
	}
	const children = 2500
	for i := 0; i < children; i++ {
		if _, err := c.Create(fmt.Sprintf("/big/o%05d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	all, err := c.List("/big")
	if err != nil || len(all) != children {
		t.Fatalf("List = %d entries, err %v", len(all), err)
	}
	byDefault, next, err := c.ListPage("/big", "", 0)
	if err != nil || len(byDefault) != 1000 || next == "" {
		t.Fatalf("default page = %d entries, next %q, err %v", len(byDefault), next, err)
	}
	unpaged, next, err := c.ListPage("/big", "", children+1)
	if err != nil || next != "" || !slices.Equal(unpaged, all) {
		t.Fatalf("unpaged ListPage = %d entries, next %q, err %v; differs from List", len(unpaged), next, err)
	}
	remote, err := rc.List("/big")
	if err != nil || len(remote) != children {
		t.Fatalf("remote List = %d entries, err %v", len(remote), err)
	}
	for i := range remote {
		// ModTime loses its monotonic reading on the wire; compare instants.
		if remote[i].Path != all[i].Path || !remote[i].ModTime.Equal(all[i].ModTime) {
			t.Fatalf("remote List[%d] = %+v, local %+v", i, remote[i], all[i])
		}
	}
}

// TestLocalErrorsKeepTheCoreChain: an in-process Client returns the core's
// own error, so it matches sentinels the wire has no kind for; a
// RemoteClient sees the same failure flattened to "internal".
func TestLocalErrorsKeepTheCoreChain(t *testing.T) {
	m, err := core.New(core.Config{Index: indexnode.Config{
		Voters: 1, RetryWindow: 50 * time.Millisecond, CallTimeout: 20 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	cl := &Cluster{m: m}
	rc := serveAndDial(t, cl)
	m.Index().Rafts()[0].Stop() // no leader: nothing can be resolved or committed

	lerr := cl.Client().Mkdir("/x")
	if !errors.Is(lerr, types.ErrUnavailable) || ErrorKind(lerr) != "internal" {
		t.Fatalf("local mkdir without a leader: %v (kind %q), want ErrUnavailable in the chain", lerr, ErrorKind(lerr))
	}
	rerr := rc.Mkdir("/x")
	if rerr == nil || errors.Is(rerr, types.ErrUnavailable) || ErrorKind(rerr) != "internal" {
		t.Fatalf("remote mkdir without a leader: %v (kind %q), want a flattened internal error", rerr, ErrorKind(rerr))
	}
}

// serveAndDial serves cl on a loopback listener and dials it.
func serveAndDial(t *testing.T, cl *Cluster) *RemoteClient {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = Serve(l, cl) }()
	rc, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}
