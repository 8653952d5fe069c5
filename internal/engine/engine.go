// Package engine demonstrates Elan's framework generality (Section V-A):
// the elastic runtime needs exactly two things from a DL framework, a way
// to read its training state and a way to install it. The contract is
// State()/Install(), the two calls a worker.Fleet makes on its nn.Replica
// to replicate a joiner and to save and restore a checkpoint.
//
// Two engines are provided, mirroring the paper's two integrations:
//
//   - StaticEngine is Caffe-like: the network is compiled once into a fixed
//     execution plan with shapes validated up front; running a batch merely
//     replays the plan.
//   - DynamicEngine is PyTorch-like: each step eagerly executes layer
//     objects and records a tape, allowing per-step graph changes (the test
//     suite exercises a step-dependent structure).
//
// Both satisfy the same Engine interface, and both keep their whole
// training state in one arena, so State() is the live state, never a copy.
package engine

import (
	"fmt"
	"math/rand"

	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/tensor"
)

// Engine is the minimal framework contract the elastic runtime needs: run
// a training step, and read and install the replicable training state.
type Engine interface {
	// Step runs forward+backward+update on one batch and returns the loss.
	Step(x *tensor.Matrix, y []int, lr float64) (float64, error)
	// Eval returns loss and accuracy without updating parameters.
	Eval(x *tensor.Matrix, y []int) (loss, acc float64, err error)
	// State returns all replicable state (parameters + optimizer) as the
	// live arena itself, not a copy: a Step changes what it holds.
	State() []float64
	// Install overwrites the whole state with the State of an engine of the
	// same shape. A state of the wrong length is an error and changes
	// nothing.
	Install([]float64) error
	// Kind names the engine for diagnostics.
	Kind() string
}

// StaticEngine precompiles an MLP into a fixed plan (Caffe-style).
type StaticEngine struct {
	rep      *nn.Replica
	inDim    int
	compiled bool
}

// NewStatic builds and "compiles" a static engine: shapes are fixed and
// checked at construction; Step rejects mismatched batches.
func NewStatic(seed int64, sizes []int, lr, momentum float64) (*StaticEngine, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("engine: need at least 2 layer sizes")
	}
	rep, err := nn.NewReplica(rand.New(rand.NewSource(seed)), sizes, lr, momentum)
	if err != nil {
		return nil, err
	}
	return &StaticEngine{rep: rep, inDim: sizes[0], compiled: true}, nil
}

// Kind implements Engine.
func (e *StaticEngine) Kind() string { return "static" }

// Step implements Engine with compile-time shape enforcement.
func (e *StaticEngine) Step(x *tensor.Matrix, y []int, lr float64) (float64, error) {
	if !e.compiled {
		return 0, fmt.Errorf("engine: static engine not compiled")
	}
	if x.Cols != e.inDim {
		return 0, fmt.Errorf("engine: static plan expects %d features, got %d", e.inDim, x.Cols)
	}
	return step(e.rep, x, y, lr)
}

// Eval implements Engine.
func (e *StaticEngine) Eval(x *tensor.Matrix, y []int) (float64, float64, error) {
	return eval(e.rep.Net, x, y)
}

// State implements Engine: the replica's arena, [params | velocity].
func (e *StaticEngine) State() []float64 { return e.rep.State() }

// Install implements Engine.
func (e *StaticEngine) Install(state []float64) error { return e.rep.Install(state) }

// step runs one forward, backward and optimizer update of rep on a batch.
func step(rep *nn.Replica, x *tensor.Matrix, y []int, lr float64) (float64, error) {
	net := rep.Net
	net.ZeroGrads()
	out, err := net.Forward(x)
	if err != nil {
		return 0, err
	}
	loss, grad, err := net.SoftmaxLoss(out, y)
	if err != nil {
		return 0, err
	}
	if err := net.Backward(grad); err != nil {
		return 0, err
	}
	rep.Opt.LR = lr
	if err := rep.Opt.Step(net.Params(), net.Grads()); err != nil {
		return 0, err
	}
	return loss, nil
}

// eval returns net's loss and accuracy on a batch.
func eval(net *nn.MLP, x *tensor.Matrix, y []int) (float64, float64, error) {
	out, err := net.Forward(x)
	if err != nil {
		return 0, 0, err
	}
	loss, _, err := net.SoftmaxLoss(out, y)
	if err != nil {
		return 0, 0, err
	}
	acc, err := nn.Accuracy(out, y)
	return loss, acc, err
}

// DynamicEngine executes eagerly and may change structure between steps
// (PyTorch-style). It keeps a set of branches and picks one per step based
// on a caller-provided selector, re-recording the tape each time.
type DynamicEngine struct {
	// branches are carved out of state, laid out
	// [branch 0 params | velocity | branch 1 params | velocity | ...].
	branches []*nn.Replica
	state    []float64
	// Select picks the branch for a given step; defaults to branch 0.
	Select func(step int) int
	step   int
}

// NewDynamic builds a dynamic engine with one or more structural branches
// (all sharing input/output dimensions but possibly different hidden
// shapes — the kind of data-dependent control flow a static engine cannot
// express).
func NewDynamic(seed int64, branchSizes [][]int, lr, momentum float64) (*DynamicEngine, error) {
	if len(branchSizes) == 0 {
		return nil, fmt.Errorf("engine: need at least one branch")
	}
	rngs := make([]*rand.Rand, len(branchSizes))
	for i, sizes := range branchSizes {
		if len(sizes) < 2 {
			return nil, fmt.Errorf("engine: branch %d too shallow", i)
		}
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	branches, state, err := nn.NewReplicas(rngs, branchSizes, lr, momentum)
	if err != nil {
		return nil, err
	}
	return &DynamicEngine{branches: branches, state: state}, nil
}

// Kind implements Engine.
func (e *DynamicEngine) Kind() string { return "dynamic" }

func (e *DynamicEngine) pick(step int) int {
	if e.Select == nil {
		return 0
	}
	b := e.Select(step)
	if b < 0 || b >= len(e.branches) {
		return 0
	}
	return b
}

// Step implements Engine, eagerly executing the branch chosen for this
// step.
func (e *DynamicEngine) Step(x *tensor.Matrix, y []int, lr float64) (float64, error) {
	b := e.pick(e.step)
	e.step++
	return step(e.branches[b], x, y, lr)
}

// Eval implements Engine using branch 0 (the inference branch).
func (e *DynamicEngine) Eval(x *tensor.Matrix, y []int) (float64, float64, error) {
	return eval(e.branches[0].Net, x, y)
}

// State implements Engine: every branch's parameters and velocity, in
// branch order.
func (e *DynamicEngine) State() []float64 { return e.state }

// Install implements Engine.
func (e *DynamicEngine) Install(state []float64) error {
	if len(state) != len(e.state) {
		return fmt.Errorf("engine: install state of %d values, want %d", len(state), len(e.state))
	}
	copy(e.state, state)
	return nil
}

var (
	_ Engine = (*StaticEngine)(nil)
	_ Engine = (*DynamicEngine)(nil)
)
