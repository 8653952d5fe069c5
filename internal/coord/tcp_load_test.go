package coord

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/store"
)

// TestTCPServiceLoadSmoke is the coord half of the CI load-smoke job: many
// concurrent TCP clients (each holding its own connection) drive the full
// service API — reports, state reads, coordination polls — against one AM
// over real TCP. Every call must succeed, the AM must end in a consistent
// state, and the clients must reclaim all their goroutines on Close.
func TestTCPServiceLoadSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	clients, callsPer := 128, 10
	if testing.Short() {
		clients, callsPer = 32, 5
	}
	st := store.New()
	am, err := NewAM("load-job", st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	svc, err := NewTCPService(am, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewTCPService: %v", err)
	}
	defer svc.Close()

	// Seed one adjustment; the load traffic reports its workers ready in
	// the middle of the state-read storm.
	admin := NewTCPClient(svc.Addr)
	defer admin.Close()
	if err := admin.RequestAdjustment(ScaleOut, []string{"w1", "w2"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewTCPClient(svc.Addr)
			defer cl.Close()
			seen := false
			for i := 0; i < callsPer; i++ {
				if _, err := cl.AMState(); err != nil {
					errc <- fmt.Errorf("client %d AMState: %w", c, err)
					return
				}
				adj, ok, err := cl.Coordinate()
				if err != nil {
					errc <- fmt.Errorf("client %d Coordinate: %w", c, err)
					return
				}
				if ok {
					if len(adj.Add) != 2 || adj.Seq != 1 || seen {
						errc <- fmt.Errorf("client %d observed adjustment %+v, seen before: %v", c, adj, seen)
						return
					}
					seen = true
				}
			}
			// Two designated clients complete the adjustment mid-load.
			if c < 2 {
				if err := cl.ReportReady(fmt.Sprintf("w%d", c+1)); err != nil {
					errc <- fmt.Errorf("client %d ReportReady: %w", c, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The adjustment completes mid-load. Every poller that asks for it
	// after the hand-out gets it, once: a client's next poll is after it.
	// The admin's post-load poll is such a poller.
	adj, ok, err := admin.Coordinate()
	if err != nil || !ok || adj.Seq != 1 || len(adj.Add) != 2 {
		t.Fatalf("post-load Coordinate = %+v, %v, %v", adj, ok, err)
	}
	if _, ok, err := admin.Coordinate(); ok || err != nil {
		t.Fatalf("second post-load Coordinate = %v, %v, want nothing", ok, err)
	}

	// Leak guard: all per-client connections must be gone once their Close
	// ran. The admin client is closed here rather than by its defer so its
	// connection (one client reader + one server conn reader) is
	// out of the count; Close is idempotent.
	admin.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 { // svc accept loop + slack
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after load: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
