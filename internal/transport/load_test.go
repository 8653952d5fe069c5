package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/telemetry"
)

// TestLoadSmokePooledClients is the load harness the CI load-smoke job
// runs: many concurrent callers multiplexed over the client's one
// connection, every reply checked for cross-talk, zero tolerated errors,
// and the goroutine-leak guard proving the client reclaims everything. In
// -short mode (the default `go test ./...` sweep is not short) it still
// runs but with a smaller fleet.
func TestLoadSmokePooledClients(t *testing.T) {
	guardGoroutines(t)
	clients, callsPer := 256, 20
	if testing.Short() {
		clients, callsPer = 64, 10
	}
	var served atomic.Int64
	srv := NewServer(func(m Message) ([]byte, error) {
		served.Add(1)
		// Echo the caller's sequence number back so mismatched demux shows
		// up as corruption, not silence.
		return m.Payload, nil
	})
	reg := telemetry.NewRegistry()
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{Metrics: reg})
	defer client.Close()

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [16]byte
			for i := 0; i < callsPer; i++ {
				binary.BigEndian.PutUint64(buf[:8], uint64(c))
				binary.BigEndian.PutUint64(buf[8:], uint64(i))
				out, err := client.Call(context.Background(), "load", buf[:], 30*time.Second)
				if err != nil {
					errc <- fmt.Errorf("client %d call %d: %w", c, i, err)
					return
				}
				if len(out) != 16 || binary.BigEndian.Uint64(out[:8]) != uint64(c) ||
					binary.BigEndian.Uint64(out[8:]) != uint64(i) {
					errc <- fmt.Errorf("client %d call %d: cross-talk reply % x", c, i, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	want := int64(clients * callsPer)
	if got := served.Load(); got != want {
		t.Fatalf("server handled %d requests, want %d", got, want)
	}
	if got := reg.Counter("transport_server_requests_total").Value(); got != want {
		t.Fatalf("transport_server_requests_total = %d, want %d", got, want)
	}
	// The whole load must have ridden one connection: at most one dial.
	if got := reg.Counter("transport_client_dials_total").Value(); got > 1 {
		t.Fatalf("client dialed %d times for %d calls, want <= 1 (connection reuse broken)", got, want)
	}
}

// TestLoadSurvivesMidLoadRestart drives sustained CallRetry traffic while
// the server is torn down and replaced on the same address: every call
// must eventually succeed (the retry budget absorbs the outage) or fail
// with a definite retryable error, and afterwards the connection must be
// re-established against the new incarnation.
func TestLoadSurvivesMidLoadRestart(t *testing.T) {
	guardGoroutines(t)
	mk := func(tag byte) *Server {
		return NewServer(func(m Message) ([]byte, error) { return []byte{tag}, nil })
	}
	srv1 := mk(1)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewClient(addr, ClientConfig{})
	defer client.Close()

	const workers = 32
	var succeeded, retryableFailed atomic.Int64
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				_, err := client.CallRetry(context.Background(), "tick", nil, time.Second)
				if err == nil {
					succeeded.Add(1)
				} else if Retryable(err) {
					retryableFailed.Add(1)
				} else {
					// Terminal errors under pure transport churn are the bug
					// this test exists to catch.
					retryableFailed.Add(1_000_000)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let traffic establish
	srv1.Close()
	srv2 := mk(2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer srv2.Close()
	time.Sleep(200 * time.Millisecond) // traffic through the new incarnation
	close(stopTraffic)
	wg.Wait()
	if succeeded.Load() == 0 {
		t.Fatal("no call ever succeeded under restart load")
	}
	if retryableFailed.Load() >= 1_000_000 {
		t.Fatal("a call failed terminally during a pure transport outage")
	}
	// The new incarnation must answer immediately post-churn.
	out, err := client.Call(context.Background(), "tick", nil, time.Second)
	if err != nil || len(out) != 1 || out[0] != 2 {
		t.Fatalf("post-restart call = % x, %v, want [2]", out, err)
	}
}
