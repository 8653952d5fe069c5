// Package checkpoint models the checkpoint path that the Shutdown-&-Restart
// baseline uses to replicate training state (Section V-B, Figures 10/11):
// GPU state is first copied device-to-host over PCIe, then serialized and
// written to a shared filesystem (the paper's Lustre), and restored by the
// inverse path. FSModel prices that path in simulated durations. The real
// checkpoints of a live fleet go to DeltaStore: one full snapshot per job
// name, copied into a spare buffer and published by one swap.
package checkpoint

import (
	"errors"
	"time"
)

// ErrNoCheckpoint is returned when restoring a checkpoint that was never saved.
var ErrNoCheckpoint = errors.New("checkpoint: not found")

// FSModel is the shared-filesystem cost model.
type FSModel struct {
	// WriteBytesPerSec is the aggregate write bandwidth.
	WriteBytesPerSec float64
	// ReadBytesPerSec is the aggregate read bandwidth.
	ReadBytesPerSec float64
	// OpLatency is the fixed metadata cost per save or load.
	OpLatency time.Duration
	// PCIeBytesPerSec is the host<->device copy bandwidth (the CPU-GPU
	// memory copy the paper's IO-free mechanism avoids).
	PCIeBytesPerSec float64
}

// DefaultFSModel approximates a busy Lustre deployment plus PCIe gen3 D2H.
func DefaultFSModel() FSModel {
	return FSModel{
		WriteBytesPerSec: 800e6,
		ReadBytesPerSec:  1.2e9,
		OpLatency:        120 * time.Millisecond,
		PCIeBytesPerSec:  6e9,
	}
}

// SaveTime returns the simulated time to checkpoint gpuBytes of device state
// and cpuBytes of host state: D2H copy of the GPU part, then an FS write of
// everything.
func (m FSModel) SaveTime(gpuBytes, cpuBytes int64) time.Duration {
	if gpuBytes < 0 {
		gpuBytes = 0
	}
	if cpuBytes < 0 {
		cpuBytes = 0
	}
	d2h := time.Duration(float64(gpuBytes) / m.PCIeBytesPerSec * float64(time.Second))
	write := time.Duration(float64(gpuBytes+cpuBytes) / m.WriteBytesPerSec * float64(time.Second))
	return m.OpLatency + d2h + write
}

// LoadTime returns the simulated time to restore a checkpoint: FS read of
// everything, then H2D copy of the GPU part. nReaders > 1 models restart
// workers loading the same checkpoint concurrently and splitting read
// bandwidth.
func (m FSModel) LoadTime(gpuBytes, cpuBytes int64, nReaders int) time.Duration {
	if gpuBytes < 0 {
		gpuBytes = 0
	}
	if cpuBytes < 0 {
		cpuBytes = 0
	}
	if nReaders < 1 {
		nReaders = 1
	}
	perReader := m.ReadBytesPerSec / float64(nReaders)
	read := time.Duration(float64(gpuBytes+cpuBytes) / perReader * float64(time.Second))
	h2d := time.Duration(float64(gpuBytes) / m.PCIeBytesPerSec * float64(time.Second))
	return m.OpLatency + read + h2d
}
