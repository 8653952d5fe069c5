package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/racecheck"
)

// echoServer starts a Server whose handler echoes kind:payload, closed at
// test end.
func echoServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv := NewServer(func(m Message) ([]byte, error) {
		out := make([]byte, 0, len(m.Kind)+1+len(m.Payload))
		out = append(out, m.Kind...)
		out = append(out, ':')
		return append(out, m.Payload...), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestPooledCallBasic(t *testing.T) {
	guardGoroutines(t)
	_, addr := echoServer(t)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	out, err := client.Call(context.Background(), "ping", []byte("x"), time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(out) != "ping:x" {
		t.Fatalf("reply = %q", out)
	}
}

// TestPooledCallConcurrentDemux drives many goroutines through the one
// connection so it multiplexes many requests at once, and verifies each
// caller gets its own reply — the demux-by-ID contract that replaces the
// old one-request-per-connection lockstep.
func TestPooledCallConcurrentDemux(t *testing.T) {
	guardGoroutines(t)
	_, addr := echoServer(t)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	const goroutines, calls = 32, 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				out, err := client.Call(context.Background(), "echo", []byte(payload), 5*time.Second)
				if err != nil {
					errc <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if string(out) != "echo:"+payload {
					errc <- fmt.Errorf("g%d i%d: cross-talk: got %q", g, i, out)
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
}

// TestPooledNoHeadOfLineBlocking pins the concurrent-dispatch fix: on a
// the client's one connection, a fast request issued after a slow one must
// complete first. The old serveConn ran handlers inline in the read loop,
// so the slow handler head-of-line blocked the whole connection.
func TestPooledNoHeadOfLineBlocking(t *testing.T) {
	guardGoroutines(t)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	srv := NewServer(func(m Message) ([]byte, error) {
		if m.Kind == "slow" {
			<-release
		}
		return []byte(m.Kind), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	// Runs before srv.Close (LIFO), which joins the parked slow handler.
	defer releaseOnce()
	client := NewClient(addr, ClientConfig{})
	defer client.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "slow", nil, 10*time.Second)
		slowDone <- err
	}()
	// The fast call must finish while the slow handler is still parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := client.Call(context.Background(), "fast", nil, 5*time.Second)
		if err == nil && string(out) == "fast" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fast call starved behind slow handler: %v", err)
		}
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished early: %v", err)
	default:
	}
	releaseOnce()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestPooledClientSurvivesServerRestart is the restart-transparency
// contract: kill the server, bring a new one up on the same address, and
// CallRetry must ride it out by dropping the dead connection and
// redialing.
func TestPooledClientSurvivesServerRestart(t *testing.T) {
	guardGoroutines(t)
	srv1, addr := echoServer(t)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	if _, err := client.Call(context.Background(), "warm", nil, time.Second); err != nil {
		t.Fatalf("warm call: %v", err)
	}
	srv1.Close()
	// New incarnation on the same port.
	srv2 := NewServer(func(m Message) ([]byte, error) { return []byte("v2"), nil })
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer srv2.Close()
	out, err := client.CallRetry(context.Background(), "probe", nil, time.Second)
	if err != nil {
		t.Fatalf("CallRetry across restart: %v", err)
	}
	if string(out) != "v2" {
		t.Fatalf("reply = %q, want v2", out)
	}
}

// TestServerCloseResolvesInflightPooledCalls kills the server while
// calls are parked in handlers: every in-flight call must resolve with a
// definite (retryable, transport-level) error — no hangs — and neither
// side may leak goroutines.
func TestServerCloseResolvesInflightPooledCalls(t *testing.T) {
	guardGoroutines(t)
	started := make(chan struct{}, 64)
	block := make(chan struct{})
	srv := NewServer(func(m Message) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	const inflight = 8
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := client.Call(context.Background(), "park", nil, 30*time.Second)
			results <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers never started")
		}
	}
	// Close tears the connections immediately but joins the parked handler
	// goroutines, so run it concurrently: every in-flight call must
	// resolve with a definite, retryable transport error while the
	// handlers are still parked — proof that callers never hang on a
	// mid-request shutdown.
	closeDone := make(chan struct{})
	go func() { srv.Close(); close(closeDone) }()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("in-flight call succeeded though its handler never replied")
			}
			if !Retryable(err) {
				t.Fatalf("in-flight call resolved terminal: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight call never resolved after Server.Close")
		}
	}
	close(block)
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close never returned after handlers released")
	}
}

// TestClientCloseResolvesInflightCalls is the mirror image: Client.Close
// with calls parked server-side resolves every caller with ErrClosed and
// reclaims the reader goroutines.
func TestClientCloseResolvesInflightCalls(t *testing.T) {
	guardGoroutines(t)
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	srv := NewServer(func(m Message) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	// Registered after srv.Close so it runs first: Close joins the parked
	// handler goroutines, which need block released to return.
	defer close(block)
	client := NewClient(addr, ClientConfig{})
	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := client.Call(context.Background(), "park", nil, 30*time.Second)
			results <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		<-started
	}
	client.Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("in-flight call after Client.Close = %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight call never resolved after Client.Close")
		}
	}
	// Closed client fails fast and terminally.
	if _, err := client.Call(context.Background(), "x", nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed client = %v, want ErrClosed", err)
	}
}

// TestPooledCallTimeoutLeavesConnUsable: a timed-out call (slow handler)
// must not poison the connection — the late reply is discarded and
// subsequent calls on the same connection succeed.
func TestPooledCallTimeoutLeavesConnUsable(t *testing.T) {
	guardGoroutines(t)
	release := make(chan struct{})
	srv := NewServer(func(m Message) ([]byte, error) {
		if m.Kind == "slow" {
			<-release
		}
		return []byte(m.Kind), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	// Runs before srv.Close (LIFO), which joins the parked slow handler.
	defer close(release)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	_, err = client.Call(context.Background(), "slow", nil, 50*time.Millisecond)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("slow call error = %v, want ErrCallTimeout", err)
	}
	if !Retryable(err) {
		t.Fatal("call timeout must be retryable")
	}
	out, err := client.Call(context.Background(), "fast", nil, 5*time.Second)
	if err != nil || string(out) != "fast" {
		t.Fatalf("call after timeout = %q, %v", out, err)
	}
}

// TestPooledCallSteadyStateAllocsBounded guards the buffer-reuse contract:
// once the connection and frame buffers are warm, a round trip performs a small
// constant number of allocations (result copy, reply channel, timer —
// not per-call frame buffers or codec scratch).
func TestPooledCallSteadyStateAllocsBounded(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed under -race; the CI hotpath job runs this without it")
	}
	_, addr := echoServer(t)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	ctx := context.Background()
	payload := []byte("steady-state-payload")
	call := func() {
		if _, err := client.Call(ctx, "bench", payload, time.Second); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	call() // warm: dial, reader start, frame buffers
	avg := testing.AllocsPerRun(200, call)
	// The bound is deliberately loose enough to tolerate runtime noise but
	// tight enough that a per-call frame buffer or codec scratch slice
	// (tens of allocs under gob) fails it.
	const maxAllocs = 25
	if avg > maxAllocs {
		t.Fatalf("call = %.1f allocs/op, want <= %d (buffer reuse broken)", avg, maxAllocs)
	}
}

// BenchmarkPooledCall drives one client, over its one connection, against
// a loopback echo server with 1, 64 and 256 concurrent callers and a
// 64-byte payload. ns/op is wall time over all callers' calls, so it falls
// as concurrency fills the connection; allocs/op is process-wide and
// includes the server side of each call.
func BenchmarkPooledCall(b *testing.B) {
	_, addr := echoServer(b)
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	ctx := context.Background()
	payload := make([]byte, 64)
	for _, conc := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("c%d", conc), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := client.Call(ctx, "echo", payload, 30*time.Second); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestPooledRequestIDsUniquePerConn: the old TCP path hardcoded ID 1 on
// every request, which multiplexing would collapse. Drive concurrent calls
// over one connection and assert the server observed unique IDs.
func TestPooledRequestIDsUniquePerConn(t *testing.T) {
	guardGoroutines(t)
	var mu sync.Mutex
	seen := make(map[uint64]int)
	srv := NewServer(func(m Message) ([]byte, error) {
		mu.Lock()
		seen[m.ID]++
		mu.Unlock()
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := client.Call(context.Background(), "id", nil, 5*time.Second); err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("calls failed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 8*25 {
		t.Fatalf("server saw %d unique request IDs, want %d", len(seen), 8*25)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request ID %d seen %d times", id, n)
		}
	}
}
