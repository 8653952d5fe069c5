// Package nn is the pure-Go neural-network substrate: a small multilayer
// perceptron with ReLU activations and a softmax cross-entropy head, trained
// by SGD with momentum. It exists so that the batch-size / learning-rate
// experiments of the paper (Figures 5 and 18) run against genuine
// optimization dynamics rather than a fitted curve: the accuracy loss at
// large total batch sizes and its (partial) recovery under the linear
// scaling rule emerge from actual SGD on a real loss surface.
//
// The package also exposes the training state the elastic runtime needs to
// replicate: flattened parameters and optimizer velocity, and — as a Replica —
// both in one contiguous arena, so that replicating a worker is one copy. A
// network's gradients are one vector too, in parameter order: backward writes
// it in place, the ddp reducer averages bucket subslices of it in place, and
// the optimizer reads it where it lies.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/elan-sys/elan/internal/tensor"
)

// linearWS is one Linear layer's scratch for a particular batch size:
// the workspace-owned copy of the input (so callers may mutate or reuse
// their batch between forward and backward without corrupting gradients),
// the forward activation, and the input-gradient buffer. Workspaces are
// cached per batch-row count; after the first step with a given shape the
// layer's forward and backward passes allocate nothing.
type linearWS struct {
	input *tensor.Matrix // batch x in, owned copy of the forward input
	out   *tensor.Matrix // batch x out
	// gradIn (batch x in) is built by the first backward that computes an
	// input gradient. A network's first layer never does (MLP.BackwardLayers),
	// so its workspaces never have one.
	gradIn *tensor.Matrix
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W, B *tensor.Matrix // parameters
	// GradW and GradB are the accumulated gradients: views into the owning
	// network's gradient arena, W before B. Nothing outside the package reads
	// them; readers go through MLP.Grads, FlattenGrads or GradArena, which
	// settle the zero mark first.
	GradW, GradB *tensor.Matrix
	// zero is the mark ZeroGrads leaves instead of clearing memory: the
	// gradient is zero, whatever GradW and GradB still hold. The next Backward
	// overwrites them with its kernel output; a reader that comes first clears
	// them (MLP.settleGrads).
	zero bool
	// gw (in x out) and gb (1 x out) are the kernel scratch of the accumulate
	// form, a Backward onto a gradient that is not marked zero. They are
	// allocated by the first such Backward: a step that runs ZeroGrads before
	// every Backward never has them.
	gw, gb *tensor.Matrix
	ws     map[int]*linearWS // per-batch-shape workspaces, keyed by rows
	cur    *linearWS         // workspace of the most recent Forward
}

// NewLinear creates a layer with He-initialized weights.
func NewLinear(rng *rand.Rand, in, out int) (*Linear, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: linear layer of shape %dx%d", in, out)
	}
	n := in*out + out
	return newLinear(rng, in, out, make([]float64, n), make([]float64, n))
}

// newLinear builds a layer whose W and B are views of params and whose GradW
// and GradB are views of grads: in*out weights, then out biases — the
// flatten order. A nil rng leaves params as it is (a replica whose state
// arrives by replication); otherwise the weights are He-initialized.
func newLinear(rng *rand.Rand, in, out int, params, grads []float64) (*Linear, error) {
	l := &Linear{ws: make(map[int]*linearWS)}
	var err error
	if l.W, l.B, err = layerViews(in, out, params); err != nil {
		return nil, fmt.Errorf("nn: linear parameters: %w", err)
	}
	if l.GradW, l.GradB, err = layerViews(in, out, grads); err != nil {
		return nil, fmt.Errorf("nn: linear gradients: %w", err)
	}
	if rng != nil {
		l.W.Randn(rng, math.Sqrt(2.0/float64(in)))
	}
	return l, nil
}

// layerViews wraps data as an in x out matrix followed by a 1 x out row.
func layerViews(in, out int, data []float64) (w, b *tensor.Matrix, err error) {
	if w, err = tensor.FromSlice(in, out, data[:in*out]); err != nil {
		return nil, nil, err
	}
	if b, err = tensor.FromSlice(1, out, data[in*out:]); err != nil {
		return nil, nil, err
	}
	return w, b, nil
}

// wsFor returns (building on first use) the workspace for a batch of rows.
//
//elan:hotpath
func (l *Linear) wsFor(rows int) *linearWS {
	w := l.ws[rows]
	if w == nil {
		w = &linearWS{ //elan:vet-allow hotpathalloc — first-use workspace priming; steady state reuses it
			input: tensor.MustNew(rows, l.W.Rows),
			out:   tensor.MustNew(rows, l.W.Cols),
		}
		l.ws[rows] = w
	}
	return w
}

// Forward computes xW + b into the layer's workspace and caches a copy of
// x for the backward pass. The returned matrix is workspace-owned and
// valid until the next Forward with the same batch size.
//
//elan:hotpath
func (l *Linear) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != l.W.Rows {
		return nil, fmt.Errorf("nn: forward %dx%d through %dx%d layer",
			x.Rows, x.Cols, l.W.Rows, l.W.Cols)
	}
	w := l.wsFor(x.Rows)
	copy(w.input.Data, x.Data)
	if err := tensor.MatMulInto(w.out, w.input, l.W); err != nil {
		return nil, err
	}
	if err := w.out.AddRowVector(l.B); err != nil {
		return nil, err
	}
	l.cur = w
	return w.out, nil
}

// Backward accumulates parameter gradients and returns the gradient with
// respect to the layer input (workspace-owned, valid until the next
// Backward with the same batch size).
//
// Onto a gradient marked zero the kernels write GradW and GradB directly.
// That is bit for bit what computing into scratch and adding to a cleared
// gradient gives: both kernels start every output row at +0, so no sum of
// theirs is -0, and 0 + x keeps every other x, a NaN's sign and payload
// included. Onto anything else they compute into gw/gb and add.
//
//elan:hotpath
func (l *Linear) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return l.backward(grad, true)
}

// backward is Backward, computing the input gradient only when wantIn: the
// parameter gradients are the same either way, and without wantIn it
// returns a nil matrix.
//
//elan:hotpath
func (l *Linear) backward(grad *tensor.Matrix, wantIn bool) (*tensor.Matrix, error) {
	w := l.cur
	if w == nil {
		return nil, fmt.Errorf("nn: backward before forward")
	}
	if l.zero {
		if err := tensor.MatMulATInto(l.GradW, w.input, grad); err != nil {
			return nil, err
		}
		if err := grad.SumRowsInto(l.GradB); err != nil {
			return nil, err
		}
		l.zero = false
	} else {
		if l.gw == nil {
			l.gw = tensor.MustNew(l.W.Rows, l.W.Cols)
			l.gb = tensor.MustNew(1, l.W.Cols)
		}
		if err := tensor.MatMulATInto(l.gw, w.input, grad); err != nil {
			return nil, err
		}
		if err := l.GradW.Axpy(1, l.gw); err != nil {
			return nil, err
		}
		if err := grad.SumRowsInto(l.gb); err != nil {
			return nil, err
		}
		if err := l.GradB.Axpy(1, l.gb); err != nil {
			return nil, err
		}
	}
	if !wantIn {
		return nil, nil
	}
	if w.gradIn == nil {
		w.gradIn = tensor.MustNew(w.input.Rows, l.W.Rows)
	}
	if err := tensor.MatMulBTInto(w.gradIn, grad, l.W); err != nil {
		return nil, err
	}
	return w.gradIn, nil
}

// MLP is a multilayer perceptron with ReLU between linear layers and raw
// logits at the output.
type MLP struct {
	layers []*Linear
	// flat is every parameter and gradArena every gradient, layer by layer,
	// W before B: the layers' matrices are views into them, so they are at
	// all times what FlattenParams and FlattenGrads would export.
	flat, gradArena []float64
	masks           []*tensor.Matrix         // ReLU masks of the most recent Forward
	maskWS          map[int][]*tensor.Matrix // per-batch-shape mask buffers
	probs           map[int]*tensor.Matrix   // per-batch-shape softmax buffer
	params          []*tensor.Matrix         // cached Params() result
	grads           []*tensor.Matrix         // cached Grads() result
	offs            []int                    // layer i's gradients are gradArena[offs[i]:offs[i+1]]
}

// NewMLP builds an MLP with the given layer sizes, e.g. {2, 64, 64, 3} for a
// 2-feature, 3-class network with two hidden layers of width 64.
func NewMLP(rng *rand.Rand, sizes []int) (*MLP, error) {
	n, err := numParams(sizes)
	if err != nil {
		return nil, err
	}
	return newMLP(rng, sizes, make([]float64, n))
}

// numParams validates layer sizes and returns the parameter count.
func numParams(sizes []int) (int, error) {
	if len(sizes) < 2 {
		return 0, fmt.Errorf("nn: need at least input and output sizes, got %v", sizes)
	}
	n := 0
	for i, s := range sizes {
		if s <= 0 {
			return 0, fmt.Errorf("nn: non-positive layer size in %v", sizes)
		}
		if i > 0 {
			n += sizes[i-1]*s + s
		}
	}
	return n, nil
}

// newMLP builds the network over params (numParams(sizes) values) and a
// gradient arena of the same length allocated here: every parameter and
// gradient matrix is a view into one of them, layer by layer, W before B.
func newMLP(rng *rand.Rand, sizes []int, params []float64) (*MLP, error) {
	m := &MLP{
		flat:      params,
		gradArena: make([]float64, len(params)),
		maskWS:    make(map[int][]*tensor.Matrix),
		probs:     make(map[int]*tensor.Matrix),
	}
	off := 0
	for i := 0; i+1 < len(sizes); i++ {
		end := off + sizes[i]*sizes[i+1] + sizes[i+1]
		l, err := newLinear(rng, sizes[i], sizes[i+1], params[off:end:end], m.gradArena[off:end:end])
		if err != nil {
			return nil, err
		}
		m.layers = append(m.layers, l)
		m.offs = append(m.offs, off)
		off = end
	}
	m.offs = append(m.offs, off)
	return m, nil
}

// Forward runs the network and returns logits (workspace-owned; valid
// until the next Forward with the same batch size).
//
//elan:hotpath
func (m *MLP) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	masks := m.maskWS[x.Rows]
	if masks == nil {
		masks = make([]*tensor.Matrix, len(m.layers)-1) //elan:vet-allow hotpathalloc — first-use workspace priming; steady state reuses it
		m.maskWS[x.Rows] = masks
	}
	h := x
	for i, l := range m.layers {
		var err error
		h, err = l.Forward(h)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d forward: %w", i, err)
		}
		if i < len(m.layers)-1 {
			if masks[i] == nil {
				masks[i] = tensor.MustNew(h.Rows, h.Cols)
			}
			if err := h.ReLUInto(masks[i]); err != nil {
				return nil, err
			}
		}
	}
	m.masks = masks
	return h, nil
}

// Backward propagates the loss gradient through the network, accumulating
// parameter gradients.
//
//elan:hotpath
func (m *MLP) Backward(grad *tensor.Matrix) error {
	return m.BackwardLayers(grad, nil)
}

// BackwardLayers is Backward with a per-layer completion hook: onLayer(i)
// runs as soon as layer i's parameter gradients are final, while layers
// i-1..0 still have backward compute ahead of them. Gradient bucketing
// hangs off this hook: the ddp reducer averages the buckets of finished
// layers from it, before the layers below run. Layers complete in
// descending index order. A nil onLayer makes it exactly Backward.
//
// The first layer computes no input gradient: it would be the gradient
// with respect to the batch, which nothing reads.
//
//elan:hotpath
func (m *MLP) BackwardLayers(grad *tensor.Matrix, onLayer func(layer int) error) error {
	g := grad
	for i := len(m.layers) - 1; i >= 0; i-- {
		var err error
		g, err = m.layers[i].backward(g, i > 0)
		if err != nil {
			return fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
		if onLayer != nil {
			if err := onLayer(i); err != nil {
				return err
			}
		}
		if i > 0 {
			if err := g.Hadamard(m.masks[i-1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// NumLayers returns the number of linear layers.
func (m *MLP) NumLayers() int { return len(m.layers) }

// GradRange returns the [lo, hi) range layer's gradients occupy in the
// gradient vector (GradArena / FlattenGrads / LoadGrads order).
//
//elan:hotpath
func (m *MLP) GradRange(layer int) (int, int) {
	return m.offs[layer], m.offs[layer+1]
}

// ZeroGrads clears all accumulated gradients. It clears no memory: it marks
// every layer's gradient as zero, which the next Backward consumes by
// overwriting and any reader settles first.
//
//elan:hotpath
func (m *MLP) ZeroGrads() {
	for _, l := range m.layers {
		l.zero = true
	}
}

// settleGrads clears the gradient of every layer still marked zero, after
// which the gradient arena says what the marks said and can be handed out or
// read.
//
//elan:hotpath
func (m *MLP) settleGrads() {
	for _, l := range m.layers {
		if l.zero {
			l.GradW.Zero()
			l.GradB.Zero()
			l.zero = false
		}
	}
}

// Params returns all parameter matrices in a stable order. The slice is
// built once and cached (the matrices are fixed at construction), so hot
// paths may call it every step without allocating; callers must not mutate
// the slice itself.
//
//elan:hotpath
func (m *MLP) Params() []*tensor.Matrix {
	if m.params == nil {
		for _, l := range m.layers {
			m.params = append(m.params, l.W, l.B)
		}
	}
	return m.params
}

// Grads returns all gradient matrices in the same order as Params, cached
// like Params: views into GradArena.
//
//elan:hotpath
func (m *MLP) Grads() []*tensor.Matrix {
	m.settleGrads()
	if m.grads == nil {
		for _, l := range m.layers {
			m.grads = append(m.grads, l.GradW, l.GradB)
		}
	}
	return m.grads
}

// GradArena returns the gradient vector itself, not a copy: every gradient
// in parameter order, GradRange(layer) a subslice of it. Whoever holds it
// reads and writes the network's live gradients, so the owner decides when
// that is safe; ZeroGrads does not clear it (the zero mark is settled here,
// once, not on later use of the slice).
//
// After a ddp step (Reducer.BackwardStep) a rank's arena holds the mean
// gradient only on the ranges it owns (collective.Chunk of each bucket);
// elsewhere it holds the rank's own partial sums. After BackwardAllReduce
// it holds the mean everywhere.
func (m *MLP) GradArena() []float64 {
	m.settleGrads()
	return m.gradArena
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int { return len(m.flat) }

// FlattenParams appends all parameters to dst.
func (m *MLP) FlattenParams(dst []float64) []float64 { return append(dst, m.flat...) }

// FlattenGrads appends all gradients to dst.
//
//elan:hotpath
func (m *MLP) FlattenGrads(dst []float64) []float64 {
	m.settleGrads()
	return append(dst, m.gradArena...)
}

// LoadGrads copies a flattened gradient vector into the network: one of
// exactly NumParams values, or an error and untouched gradients. A Backward
// after it accumulates onto the loaded values.
func (m *MLP) LoadGrads(flat []float64) error {
	if len(flat) != len(m.gradArena) {
		return fmt.Errorf("nn: load %d gradients into a network of %d", len(flat), len(m.gradArena))
	}
	copy(m.gradArena, flat)
	for _, l := range m.layers {
		l.zero = false
	}
	return nil
}

// SoftmaxLoss computes the mean softmax cross-entropy of logits against
// integer labels using the network's per-batch-shape softmax buffer: after
// the first call with a given batch size it allocates nothing. The
// returned gradient is workspace-owned and reused by the next call with
// the same batch size.
//
//elan:hotpath
func (m *MLP) SoftmaxLoss(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix, error) {
	p := m.probs[logits.Rows]
	if p == nil || p.Cols != logits.Cols {
		p = tensor.MustNew(logits.Rows, logits.Cols)
		m.probs[logits.Rows] = p
	}
	return softmaxCrossEntropyInto(p, logits, labels)
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits against
// integer labels and returns the loss and the gradient with respect to the
// logits (already divided by the batch size). It allocates a fresh gradient
// per call; the hot path uses MLP.SoftmaxLoss.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix, error) {
	if len(labels) != logits.Rows {
		return 0, nil, fmt.Errorf("nn: %d labels for %d rows", len(labels), logits.Rows)
	}
	return softmaxCrossEntropyInto(tensor.MustNew(logits.Rows, logits.Cols), logits, labels)
}

// softmaxCrossEntropyInto computes the loss and gradient into the
// caller-owned probs buffer (same shape as logits) and returns probs as
// the gradient.
//
//elan:hotpath
func softmaxCrossEntropyInto(probs, logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix, error) {
	if len(labels) != logits.Rows {
		return 0, nil, fmt.Errorf("nn: %d labels for %d rows", len(labels), logits.Rows)
	}
	copy(probs.Data, logits.Data)
	probs.SoftmaxRows()
	var loss float64
	grad := probs // reuse: grad = probs - onehot
	for i, y := range labels {
		if y < 0 || y >= logits.Cols {
			return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", y, logits.Cols)
		}
		p := probs.At(i, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Set(i, y, grad.At(i, y)-1)
	}
	n := float64(logits.Rows)
	loss /= n
	grad.Scale(1 / n)
	return loss, grad, nil
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Matrix, labels []int) (float64, error) {
	if len(labels) != logits.Rows {
		return 0, fmt.Errorf("nn: %d labels for %d rows", len(labels), logits.Rows)
	}
	correct := 0
	for i, y := range labels {
		best, bestV := 0, logits.At(i, 0)
		for j := 1; j < logits.Cols; j++ {
			if v := logits.At(i, j); v > bestV {
				best, bestV = j, v
			}
		}
		if best == y {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// SGD is stochastic gradient descent with momentum. Velocity is part of the
// training state replicated on elastic adjustments.
type SGD struct {
	LR       float64
	Momentum float64
	// state is every velocity value in parameter order (the FlattenState
	// order); the velocity matrices are views into it.
	state    []float64
	velocity []*tensor.Matrix
}

// NewSGD creates an optimizer for the given parameter shapes.
func NewSGD(params []*tensor.Matrix, lr, momentum float64) (*SGD, error) {
	return newSGD(params, lr, momentum, nil)
}

// newSGD builds the optimizer with its velocity matrices as views into vel
// (one value per parameter, in parameter order — the FlattenState order),
// allocated here when nil.
func newSGD(params []*tensor.Matrix, lr, momentum float64, vel []float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: non-positive learning rate %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("nn: momentum %v out of [0,1)", momentum)
	}
	if vel == nil {
		vel = make([]float64, tensor.NumElements(params...))
	}
	s := &SGD{LR: lr, Momentum: momentum, state: vel}
	for _, p := range params {
		n := p.Rows * p.Cols
		v, err := tensor.FromSlice(p.Rows, p.Cols, vel[:n:n])
		if err != nil {
			return nil, fmt.Errorf("nn: velocity: %w", err)
		}
		s.velocity = append(s.velocity, v)
		vel = vel[n:]
	}
	return s, nil
}

// Step applies one update, v = mu*v + g; p -= lr*v, in one pass over each
// matrix (sgdUpdate).
//
//elan:hotpath
func (s *SGD) Step(params, grads []*tensor.Matrix) error {
	if len(params) != len(s.velocity) || len(grads) != len(s.velocity) {
		return fmt.Errorf("nn: optimizer state mismatch: %d params, %d grads, %d velocities",
			len(params), len(grads), len(s.velocity))
	}
	for i, p := range params {
		v, g := s.velocity[i], grads[i]
		if v.Rows != p.Rows || v.Cols != p.Cols || g.Rows != p.Rows || g.Cols != p.Cols {
			return fmt.Errorf("nn: optimizer step %d: %dx%d parameter, %dx%d gradient, %dx%d velocity",
				i, p.Rows, p.Cols, g.Rows, g.Cols, v.Rows, v.Cols)
		}
		sgdUpdate(p.Data, v.Data, g.Data, s.LR, s.Momentum)
	}
	return nil
}

// sgdUpdate is the optimizer's one update loop, v = mu*v + g; p -= lr*v
// for every element of p, v and g (equal lengths), shared by SGD.Step and
// Replica.Update. Every element ends on the bits of the three passes it
// replaces (v.Scale(mu), v.Axpy(1, g), p.Axpy(-lr, v)) on every platform.
// The conversion is the rounding Scale's store made before Axpy added to
// it, which a compiler that contracts multiply-adds (arm64) would otherwise
// fuse away; p - lr*v has none, as Axpy's m += a*x had none, so such a
// compiler fuses both alike. And p - lr*v is p + (-lr)*v in every bit, with
// the one difference that a compiler may not commute it: when p and v are
// both NaN the result carries p's payload, as the Axpy's did (DESIGN §9
// rule 3), and not that of whichever operand the register allocator put
// first.
//
//elan:hotpath
func sgdUpdate(p, v, g []float64, lr, mu float64) {
	v, g = v[:len(p)], g[:len(p)]
	for j := range p {
		vj := float64(v[j]*mu) + g[j]
		v[j] = vj
		p[j] -= lr * vj
	}
}

// FlattenState appends the optimizer velocity to dst; part of the replicated
// GPU state.
func (s *SGD) FlattenState(dst []float64) []float64 { return append(dst, s.state...) }

// StateElements returns the number of float64 values in the optimizer state.
func (s *SGD) StateElements() int { return len(s.state) }

// Replica is one worker's replicated training state, the network and its
// optimizer, over a single contiguous arena laid out [params | velocity]:
// exactly what FlattenParams followed by FlattenState would export. Every
// parameter and velocity matrix is a view into the arena, so the arena is
// the live state, never a snapshot of it: replicating a worker is one copy
// from its arena, checkpointing it is one read.
type Replica struct {
	Net   *MLP
	Opt   *SGD
	arena []float64
}

// NewReplica builds a replica with the given layer sizes. A non-nil rng
// He-initializes the parameters, drawing exactly the samples NewMLP would;
// a nil rng leaves the whole state zero — the replica of a joining worker,
// whose state arrives by Install.
func NewReplica(rng *rand.Rand, sizes []int, lr, momentum float64) (*Replica, error) {
	reps, _, err := NewReplicas([]*rand.Rand{rng}, [][]int{sizes}, lr, momentum)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// NewReplicas carves one replica per entry of sizes out of one arena laid
// out [replica 0 params | velocity | replica 1 params | velocity | ...], and
// returns the replicas and that arena. Replica i is built as NewReplica
// would build it from rngs[i] and sizes[i]; the arena is the live state of
// all of them at once.
func NewReplicas(rngs []*rand.Rand, sizes [][]int, lr, momentum float64) ([]*Replica, []float64, error) {
	if len(rngs) != len(sizes) {
		return nil, nil, fmt.Errorf("nn: %d random sources for %d replicas", len(rngs), len(sizes))
	}
	counts := make([]int, len(sizes))
	total := 0
	for i, s := range sizes {
		n, err := numParams(s)
		if err != nil {
			return nil, nil, err
		}
		counts[i] = n
		total += 2 * n
	}
	arena := make([]float64, total)
	reps := make([]*Replica, len(sizes))
	off := 0
	for i, n := range counts {
		own := arena[off : off+2*n : off+2*n]
		net, err := newMLP(rngs[i], sizes[i], own[:n:n])
		if err != nil {
			return nil, nil, err
		}
		opt, err := newSGD(net.Params(), lr, momentum, own[n:])
		if err != nil {
			return nil, nil, err
		}
		reps[i] = &Replica{Net: net, Opt: opt, arena: own}
		off += 2 * n
	}
	return reps, arena, nil
}

// Poison overwrites with NaN everything a recycled replica's next owner is
// required to write before reading (DESIGN §9): the state arena, the
// gradient arena, the accumulate scratch and every per-batch-shape workspace.
// Tests of the worker rig recycling contract call it on parked replicas, so
// that a read of a stale value would show; nothing else does.
func (r *Replica) Poison() {
	nan := func(ms ...*tensor.Matrix) {
		for _, m := range ms {
			if m != nil {
				for i := range m.Data {
					m.Data[i] = math.NaN()
				}
			}
		}
	}
	for i := range r.arena {
		r.arena[i] = math.NaN()
	}
	grads := r.Net.GradArena() // settled: no zero mark is left to hide the NaNs
	for i := range grads {
		grads[i] = math.NaN()
	}
	for _, l := range r.Net.layers {
		nan(l.gw, l.gb)
		for _, w := range l.ws {
			nan(w.input, w.out, w.gradIn)
		}
	}
	for _, masks := range r.Net.maskWS {
		nan(masks...)
	}
	for _, p := range r.Net.probs {
		nan(p)
	}
}

// Update applies the optimizer update to the parameters in [lo, hi) of the
// flat parameter order, from the gradients in the same range of the
// network's gradient arena: SGD.Step's update loop on that range alone, with
// the optimizer's LR and Momentum. The ddp reducer's step runs it on the
// ranges a rank owns, then copies them to its peers.
//
//elan:hotpath
func (r *Replica) Update(lo, hi int) {
	n := len(r.Net.flat)
	sgdUpdate(r.arena[lo:hi], r.arena[n+lo:n+hi], r.Net.GradArena()[lo:hi], r.Opt.LR, r.Opt.Momentum)
}

// State returns the arena itself, not a copy. Whoever holds it reads (or
// writes) the replica's live parameters and velocity, so the owner decides
// when that is safe.
func (r *Replica) State() []float64 { return r.arena }

// Install overwrites the replica's whole state with state, the arena of a
// replica of the same shape (or a restored checkpoint of one).
func (r *Replica) Install(state []float64) error {
	if len(state) != len(r.arena) {
		return fmt.Errorf("nn: install state of %d values, want %d", len(state), len(r.arena))
	}
	copy(r.arena, state)
	return nil
}
