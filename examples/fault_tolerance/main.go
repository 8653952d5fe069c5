// Fault tolerance: the application master is a single point of failure, so
// Elan (Section V-D) persists its state machine to a replicated store,
// makes its calls idempotent in that state (a resent message finds its own
// effect, on a restarted AM too), and relies on reconnecting sockets. This
// example kills the AM in the middle of a scale-out — after one of two new
// workers has reported — recovers a new incarnation from the store on the
// same TCP address, and completes the adjustment without losing the first
// report. It also shows the fencing of the stale incarnation.
//
//	go run ./examples/fault_tolerance
package main

// This example reaches into internal packages; it lives in this module, so
// that is allowed, and it demonstrates machinery the public facade wraps.

import (
	"errors"
	"fmt"
	"log"

	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The replicated store (etcd in the paper's deployment).
	st := store.New()

	fmt.Println("1. starting the application master and serving it over TCP")
	am1, err := coord.NewAM("job-42", st)
	if err != nil {
		return err
	}
	svc1, err := coord.NewTCPService(am1, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	addr := svc1.Addr
	fmt.Printf("   AM listening on %s\n", addr)
	client := coord.NewTCPClient(addr)
	defer client.Close()

	fmt.Println("2. scheduler requests a scale-out by two workers (w5, w6)")
	if err := client.RequestAdjustment(coord.ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		return err
	}
	fmt.Println("3. w5 finishes start+initialization and reports")
	if err := client.ReportReady("w5"); err != nil {
		return err
	}
	state, err := client.AMState()
	if err != nil {
		return err
	}
	fmt.Printf("   AM state: %v, still waiting for: %v\n", state.State, state.Pending)

	fmt.Println("4. the AM process crashes")
	svc1.Close()
	if _, err := client.AMState(); err != nil {
		fmt.Printf("   (worker sees: %v — it will keep resending)\n", shortErr(err))
	}

	fmt.Println("5. a new AM incarnation recovers the state machine from the store")
	am2, err := coord.Recover("job-42", st)
	if err != nil {
		return err
	}
	svc2, err := coord.NewTCPService(am2, addr, nil)
	if err != nil {
		return err
	}
	defer svc2.Close()
	state, err = client.AMState()
	if err != nil {
		return err
	}
	fmt.Printf("   recovered state: %v, pending: %v (w5's report survived)\n",
		state.State, state.Pending)

	fmt.Println("6. the stale incarnation is fenced off by the store's CAS")
	err = am1.ReportReady("w6")
	if !errors.Is(err, coord.ErrFenced) {
		return fmt.Errorf("stale AM mutation = %v, want %v", err, coord.ErrFenced)
	}
	fmt.Printf("   stale AM mutation rejected: %v\n", shortErr(err))

	fmt.Println("7. w6 reports; the next coordination fires the adjustment")
	if err := client.ReportReady("w6"); err != nil {
		return err
	}
	adj, ok, err := client.Coordinate()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("adjustment did not fire")
	}
	fmt.Printf("   adjustment #%d delivered: %v add=%v\n", adj.Seq, adj.Kind, adj.Add)
	fmt.Println("\nthe adjustment completed exactly once across an AM failure.")
	return nil
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 70 {
		return s[:70] + "..."
	}
	return s
}
