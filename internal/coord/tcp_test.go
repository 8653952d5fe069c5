package coord

import (
	"strings"
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
