package checkpoint

import (
	"testing"
	"time"
)

func TestSaveTimeScalesWithSize(t *testing.T) {
	m := DefaultFSModel()
	small := m.SaveTime(100<<20, 1<<10)
	large := m.SaveTime(1<<30, 1<<10)
	if large <= small {
		t.Fatalf("save time not monotone: %v <= %v", large, small)
	}
	// Negative sizes treated as zero.
	if got := m.SaveTime(-1, -1); got != m.OpLatency {
		t.Fatalf("negative-size save = %v, want pure latency", got)
	}
}

func TestSaveTimeDominatedByFSWrite(t *testing.T) {
	// The paper's argument for IO-free replication: the FS write (plus the
	// D2H copy) dwarfs a P2P transfer. VGG-scale state: 1.14 GB.
	m := DefaultFSModel()
	gpu := int64(1144 << 20)
	save := m.SaveTime(gpu, 64<<10)
	// Write alone at 800 MB/s is ~1.5s.
	if save < time.Second {
		t.Fatalf("checkpoint save %v suspiciously fast", save)
	}
}

func TestLoadTimeReadersShareBandwidth(t *testing.T) {
	m := DefaultFSModel()
	one := m.LoadTime(1<<30, 0, 1)
	many := m.LoadTime(1<<30, 0, 8)
	if many <= one {
		t.Fatalf("8 readers (%v) not slower than 1 (%v)", many, one)
	}
	if got := m.LoadTime(1<<20, 0, 0); got <= 0 {
		t.Fatalf("nReaders=0 load = %v", got)
	}
}
