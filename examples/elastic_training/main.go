// Elastic training: the Section VI-B scenario on the live substrate. An
// AdaBatch-style algorithm doubles the total batch size at fixed intervals;
// Elan scales the worker pool to match and applies the progressive linear
// scaling rule to the learning rate. The example trains a real pure-Go MLP
// on a fleet of resident worker agents with genuine ring-allreduce data
// parallelism and verifies that replicas stay bitwise-consistent across
// every adjustment.
//
//	go run ./examples/elastic_training
package main

import (
	"fmt"
	"log"

	elan "github.com/elan-sys/elan"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed     = 7
		features = 16
		classes  = 8
	)
	train, err := elan.GenDataset(seed, 8192, features, classes)
	if err != nil {
		return err
	}
	test, err := elan.GenDataset(seed+1, 2048, features, classes)
	if err != nil {
		return err
	}
	fleet, err := elan.NewFleet(elan.FleetConfig{
		Dataset:    train,
		LayerSizes: []int{features, 32, classes},
		Workers:    2,
		TotalBatch: 64,
		LR:         0.02,
		Momentum:   0.9,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	eval := func(stage string) error {
		loss, acc, err := fleet.Evaluate(test)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s iter %4d, workers %d, TBS %4d, LR %.4f, loss %.3f, acc %.1f%%, consistent=%v\n",
			stage, fleet.Iteration(), fleet.NumWorkers(), fleet.TotalBatch(), fleet.LR(),
			loss, 100*acc, fleet.ReplicasConsistent())
		return nil
	}

	steps := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := fleet.Step(); err != nil {
				return err
			}
		}
		return nil
	}

	// A scale request is asynchronous: the joiners come up while training
	// continues, and the Step whose coordination finds them ready admits
	// them (a scale-in is applied by the next Step).
	scale := func(delta int) error {
		want := fleet.NumWorkers() + delta
		var err error
		if delta > 0 {
			err = fleet.RequestScaleOut(delta)
		} else {
			err = fleet.RequestScaleIn(-delta)
		}
		for i := 0; err == nil && fleet.NumWorkers() != want; i++ {
			if i == 1000 {
				return fmt.Errorf("scale to %d workers not applied within %d steps", want, i)
			}
			_, err = fleet.Step()
		}
		return err
	}

	if err := eval("start"); err != nil {
		return err
	}

	// Phase 1: TBS 64 on 2 workers.
	if err := steps(300); err != nil {
		return err
	}
	if err := eval("after phase 1"); err != nil {
		return err
	}

	// AdaBatch doubles the batch; Elan scales out and ramps the LR
	// (progressive linear scaling over 40 iterations).
	if err := fleet.SetTotalBatch(128, 40, true); err != nil {
		return err
	}
	if err := scale(2); err != nil { // 2 -> 4 workers
		return err
	}
	fmt.Println("-- adjustment: TBS 64 -> 128, workers 2 -> 4 (replication + group rebuild) --")
	if err := steps(200); err != nil {
		return err
	}
	if err := eval("after phase 2"); err != nil {
		return err
	}

	// Second doubling.
	if err := fleet.SetTotalBatch(256, 40, true); err != nil {
		return err
	}
	if err := scale(4); err != nil { // 4 -> 8 workers
		return err
	}
	fmt.Println("-- adjustment: TBS 128 -> 256, workers 4 -> 8 --")
	if err := steps(150); err != nil {
		return err
	}
	if err := eval("after phase 3"); err != nil {
		return err
	}

	// The cluster needs GPUs back: scale in to 4 without losing state.
	if err := scale(-4); err != nil {
		return err
	}
	fmt.Println("-- adjustment: scale in 8 -> 4 (no state movement) --")
	if err := steps(100); err != nil {
		return err
	}
	if err := eval("final"); err != nil {
		return err
	}
	if !fleet.ReplicasConsistent() {
		return fmt.Errorf("replica consistency violated")
	}
	fmt.Println("\nall adjustments preserved the data-parallel invariant.")
	return nil
}
