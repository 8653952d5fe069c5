// Frameworks: Elan's generality claim (Section V-A). The paper integrates
// Elan with both Caffe (a static execution engine) and PyTorch (a dynamic
// one) through the same framework contract. This example trains the same
// task with a static precompiled engine and a dynamic eager engine — one of
// whose branches changes per step, something a static plan cannot express —
// and shows that the one contract, State()/Install(), makes both elastic:
// replicating a worker is dst.Install(src.State()), the call a Fleet makes
// when a joiner is installed.
//
//	go run ./examples/frameworks
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
	ds, err := elan.GenDataset(3, 2048, 4, 3)
	if err != nil {
		return err
	}
	x, y, err := ds.Batch(0, 512)
	if err != nil {
		return err
	}

	// Framework 1: static engine (Caffe-like).
	static, err := elan.NewStaticEngine(1, []int{4, 24, 3}, 0.1, 0.9)
	if err != nil {
		return err
	}
	// Framework 2: dynamic engine (PyTorch-like) with two structural
	// branches chosen per step.
	dynamic, err := elan.NewDynamicEngine(1, [][]int{{4, 24, 3}, {4, 12, 12, 3}}, 0.1, 0.9)
	if err != nil {
		return err
	}
	dynamic.Select = func(step int) int { return step % 2 }

	for _, fw := range []struct {
		name string
		eng  elan.Engine
	}{
		{"static (Caffe-like)", static},
		{"dynamic (PyTorch-like)", dynamic},
	} {
		var loss float64
		for i := 0; i < 80; i++ {
			l, err := fw.eng.Step(x, y, 0.08)
			if err != nil {
				return fmt.Errorf("%s: %w", fw.name, err)
			}
			loss = l
		}
		_, acc, err := fw.eng.Eval(x, y)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s final loss %.3f, accuracy %.1f%%\n", fw.name, loss, 100*acc)
	}

	// Elasticity through the one contract, identically for both frameworks:
	// a scale-out from 1 to 3 replicas installs the trained state.
	fmt.Println("\nscale-out via State()/Install() (1 -> 3 replicas):")
	for _, fw := range []struct {
		name  string
		build func() (elan.Engine, error)
	}{
		{"static", func() (elan.Engine, error) {
			return elan.NewStaticEngine(9, []int{4, 24, 3}, 0.1, 0.9)
		}},
		{"dynamic", func() (elan.Engine, error) {
			return elan.NewDynamicEngine(9, [][]int{{4, 24, 3}}, 0.1, 0.9)
		}},
	} {
		replicas := make([]elan.Engine, 3)
		for i := range replicas {
			e, err := fw.build()
			if err != nil {
				return err
			}
			replicas[i] = e
		}
		for i := 0; i < 40; i++ {
			if _, err := replicas[0].Step(x, y, 0.08); err != nil {
				return err
			}
		}
		for _, dst := range replicas[1:] {
			if err := dst.Install(replicas[0].State()); err != nil {
				return err
			}
		}
		l0, _, err := replicas[0].Eval(x, y)
		if err != nil {
			return err
		}
		l2, _, err := replicas[2].Eval(x, y)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s replica 0 loss %.4f == replica 2 loss %.4f\n", fw.name, l0, l2)
	}
	fmt.Println("\nthe same two calls served both execution models: that is the generality claim.")
	return nil
}
