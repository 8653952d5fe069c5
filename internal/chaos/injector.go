package chaos

import (
	"math/rand"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/transport"
)

// Injector decides per-message fates for the bus fault hook: partition
// cuts, probabilistic drop bursts and straggler latency. It is installed
// with Bus.SetFaultHook(inj.Fate) and reconfigured by the harness as timed
// fault windows open and close. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	rng  *rand.Rand // drop-burst decisions; seeded for reproducible drops
	cut  map[string]bool
	loss float64
	slow map[string]time.Duration
}

// NewInjector creates an injector whose probabilistic decisions are driven
// by the given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:  rand.New(rand.NewSource(seed)),
		cut:  make(map[string]bool),
		slow: make(map[string]time.Duration),
	}
}

func linkKey(from, to string) string { return from + "\x00" + to }

// Fate implements transport.FaultHook.
func (in *Injector) Fate(m transport.Message) transport.Fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cut[linkKey(m.From, m.To)] {
		return transport.Fate{Drop: true}
	}
	if in.loss > 0 && in.rng.Float64() < in.loss {
		return transport.Fate{Drop: true}
	}
	var d time.Duration
	if v := in.slow[m.From]; v > 0 {
		d += v
	}
	if v := in.slow[m.To]; v > 0 {
		d += v
	}
	return transport.Fate{Delay: d}
}

// Partition cuts every link between the two endpoint sets, both directions.
func (in *Injector) Partition(a, b []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			in.cut[linkKey(x, y)] = true
			in.cut[linkKey(y, x)] = true
		}
	}
}

// Heal removes all partition cuts.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cut = make(map[string]bool)
}

// SetLoss sets the probability that any message is lost (0 disables).
func (in *Injector) SetLoss(r float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.loss = r
}

// SetSlow adds d of latency to every message to or from name (0 clears).
func (in *Injector) SetSlow(name string, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if d <= 0 {
		delete(in.slow, name)
		return
	}
	in.slow[name] = d
}
