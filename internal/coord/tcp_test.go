package coord

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/elan-sys/elan/internal/store"
)

func TestTCPServiceFullAdjustment(t *testing.T) {
	st := store.New()
	am, err := NewAM("tcp-job", st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	svc, err := NewTCPService(am, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewTCPService: %v", err)
	}
	defer svc.Close()
	client := NewTCPClient(svc.Addr)
	defer client.Close()

	if err := client.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	st1, err := client.AMState()
	if err != nil {
		t.Fatalf("AMState: %v", err)
	}
	if st1.State != Pending || len(st1.Pending) != 2 {
		t.Fatalf("state = %+v", st1)
	}
	if _, ok, err := client.Coordinate(); ok || err != nil {
		t.Fatalf("early Coordinate = %v, %v", ok, err)
	}
	if err := client.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	if err := client.ReportReady("w6"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	adj, ok, err := client.Coordinate()
	if err != nil || !ok {
		t.Fatalf("Coordinate = %v, %v", ok, err)
	}
	if adj.Kind != ScaleOut || len(adj.Add) != 2 {
		t.Fatalf("adjustment = %+v", adj)
	}
}

func TestTCPServiceErrorsPropagate(t *testing.T) {
	am, err := NewAM("tcp-job2", store.New())
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	svc, err := NewTCPService(am, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewTCPService: %v", err)
	}
	defer svc.Close()
	client := NewTCPClient(svc.Addr)
	defer client.Close()
	err = client.ReportReady("stranger")
	if err == nil || !strings.Contains(err.Error(), "state") {
		t.Fatalf("stray report error = %v", err)
	}
}

func TestTCPServiceSurvivesAMRestart(t *testing.T) {
	// The full fault-tolerance story: the AM crashes mid-adjustment, a new
	// incarnation recovers from the store and re-serves on the same port;
	// the client's retry rides it out and the adjustment completes with
	// the first report preserved.
	st := store.New()
	am1, err := NewAM("ft-job", st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	svc1, err := NewTCPService(am1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewTCPService: %v", err)
	}
	addr := svc1.Addr
	client := NewTCPClient(addr)
	defer client.Close()
	if err := client.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := client.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady w5: %v", err)
	}
	// Crash.
	svc1.Close()
	// Recover on the same address.
	am2, err := Recover("ft-job", st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	svc2, err := NewTCPService(am2, addr, nil)
	if err != nil {
		t.Fatalf("re-serve: %v", err)
	}
	defer svc2.Close()
	st2, err := client.AMState()
	if err != nil {
		t.Fatalf("AMState after restart: %v", err)
	}
	if st2.State != Pending || len(st2.Pending) != 1 || st2.Pending[0] != "w6" {
		t.Fatalf("recovered state = %+v, want pending [w6]", st2)
	}
	if err := client.ReportReady("w6"); err != nil {
		t.Fatalf("ReportReady w6: %v", err)
	}
	adj, ok, err := client.Coordinate()
	if err != nil || !ok || len(adj.Add) != 2 {
		t.Fatalf("Coordinate after restart = %+v, %v, %v", adj, ok, err)
	}
}

// TestTCPRetriedCoordinateAcrossAMRestart is the regression test for an
// adjustment lost over TCP: the AM hands out adjustment 1, its reply is
// lost with the connection, and the AM restarts on its address before the
// client's retry. The retry must return the same adjustment.
func TestTCPRetriedCoordinateAcrossAMRestart(t *testing.T) {
	st := store.New()
	am, err := NewAM("tcp-retry", st)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewTCPService(am, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	px := newReplyCutter(t, svc.Addr, func() {
		svc.Close()
		am2, err := Recover("tcp-retry", st)
		if err == nil {
			svc, err = NewTCPService(am2, svc.Addr, nil)
		}
		if err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	client := NewTCPClient(px.addr)
	defer client.Close()
	if err := client.RequestAdjustment(ScaleIn, nil, []string{"w4"}); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	px.armed.Store(true)
	adj, ok, err := client.Coordinate()
	if err != nil || !ok || adj.Seq != 1 || adj.Kind != ScaleIn || len(adj.Remove) != 1 || adj.Remove[0] != "w4" {
		t.Fatalf("retried Coordinate = %+v, %v, %v; want adjustment 1", adj, ok, err)
	}
	if px.armed.Load() {
		t.Fatal("the Coordinate reply was never cut")
	}
	if _, ok, err := client.Coordinate(); ok || err != nil {
		t.Fatalf("second Coordinate = %v, %v; want nothing", ok, err)
	}
}

// replyCutter is a TCP proxy in front of target. Once armed, the next bytes
// target sends back are not forwarded: onCut runs, then both connections
// close, so the caller loses the reply after the handler ran.
type replyCutter struct {
	addr  string
	armed atomic.Bool
}

func newReplyCutter(t *testing.T, target string, onCut func()) *replyCutter {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &replyCutter{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	track := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			track(c)
			track(s)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(s, c)
				s.Close()
			}()
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := s.Read(buf)
					if n > 0 && px.armed.CompareAndSwap(true, false) {
						onCut()
						s.Close()
						return
					}
					if n > 0 {
						if _, err := c.Write(buf[:n]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return px
}
