// Package models defines the DL model zoo of the paper's Table I plus
// ResNet-50, together with the calibration constants the performance model
// needs: parameter counts, per-sample compute time on the reference GPU
// (GeForce 1080Ti), fixed per-iteration kernel overhead, the fraction of
// allreduce communication that overlaps with backward compute, and the sizes
// of the CPU- and GPU-resident training state (Table II).
//
// Absolute values are approximations of the paper-era hardware; the scaling
// experiments only depend on their relative magnitudes (e.g. VGG-19 is
// communication-heavy, MobileNet-v2 is latency-bound).
package models

import (
	"fmt"
	"time"
)

// Model describes one neural network for the analytic training model.
type Model struct {
	// Name as in Table I.
	Name string
	// Letter is the single-letter alias of Figure 15 (A-E).
	Letter string
	// Kind is the architecture family (CNN, RNN, Attention).
	Kind string
	// Domain is CV or NLP.
	Domain string
	// Dataset names the training set of Table I.
	Dataset string
	// Params is the number of trainable parameters.
	Params int64
	// PerSampleTime is the forward+backward compute time per sample on the
	// reference GPU at a moderate batch size.
	PerSampleTime time.Duration
	// KernelOverhead is the fixed per-iteration launch/framework overhead;
	// it bounds strong scaling (compute cannot shrink below it).
	KernelOverhead time.Duration
	// OverlapFraction is the share of allreduce time hideable behind
	// backward compute (gradient bucketing).
	OverlapFraction float64
	// MaxPerWorkerBatch is the largest batch fitting in GPU memory.
	MaxPerWorkerBatch int
	// OptimizerFactor is optimizer state size relative to the parameters
	// (1.0 for SGD with momentum).
	OptimizerFactor float64
	// CPUStateBytes is the CPU-resident state: data-loading cursors,
	// communication-group description, runtime info (Table II: tiny).
	CPUStateBytes int64
	// DatasetSamples is the training-set size used for epoch accounting.
	DatasetSamples int
	// SwapContextBytes is the GPU context an executor-based system (Litz)
	// moves across PCIe on every context switch: parameters, optimizer
	// state and live activations. Activations dominate, so attention
	// models with long sequences (Transformer) have the largest contexts.
	SwapContextBytes int64
}

// GradBytes returns the gradient (= parameter) payload per allreduce in
// bytes, assuming float32 training.
func (m Model) GradBytes() int64 { return m.Params * 4 }

// GPUStateBytes returns the GPU-resident training state that must be
// replicated to a new worker: parameters plus optimizer state.
func (m Model) GPUStateBytes() int64 {
	return int64(float64(m.Params*4) * (1 + m.OptimizerFactor))
}

// Zoo returns the five evaluation models. The order matches the paper's
// letters: A ResNet-50, B VGG-19, C MobileNet-v2, D Seq2Seq, E Transformer.
func Zoo() []Model {
	return []Model{
		ResNet50(),
		VGG19(),
		MobileNetV2(),
		Seq2Seq(),
		Transformer(),
	}
}

// ByName looks a model up by its Table I name.
func ByName(name string) (Model, error) {
	for _, m := range Zoo() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("models: unknown model %q", name)
}

// ResNet50 is the headline model of the elastic-training experiment
// (Section VI-B): 25.6M parameters on ImageNet.
func ResNet50() Model {
	return Model{
		Name:              "ResNet-50",
		Letter:            "A",
		Kind:              "CNN",
		Domain:            "CV",
		Dataset:           "ImageNet",
		Params:            25_600_000,
		PerSampleTime:     5500 * time.Microsecond,
		KernelOverhead:    18 * time.Millisecond,
		OverlapFraction:   0.6,
		MaxPerWorkerBatch: 64,
		OptimizerFactor:   1.0,
		CPUStateBytes:     64 << 10,
		SwapContextBytes:  1536 << 20,
		DatasetSamples:    1_281_167,
	}
}

// VGG19 is the communication-heavy CNN: 143M parameters (572 MB gradients).
func VGG19() Model {
	return Model{
		Name:              "VGG-19",
		Letter:            "B",
		Kind:              "CNN",
		Domain:            "CV",
		Dataset:           "ImageNet",
		Params:            143_000_000,
		PerSampleTime:     11 * time.Millisecond,
		KernelOverhead:    14 * time.Millisecond,
		OverlapFraction:   0.5,
		MaxPerWorkerBatch: 48,
		OptimizerFactor:   1.0,
		CPUStateBytes:     64 << 10,
		SwapContextBytes:  2560 << 20,
		DatasetSamples:    1_281_167,
	}
}

// MobileNetV2 is the small, latency-bound CNN: 3.5M parameters.
func MobileNetV2() Model {
	return Model{
		Name:              "MobileNet-v2",
		Letter:            "C",
		Kind:              "CNN",
		Domain:            "CV",
		Dataset:           "ImageNet",
		Params:            3_500_000,
		PerSampleTime:     2500 * time.Microsecond,
		KernelOverhead:    22 * time.Millisecond,
		OverlapFraction:   0.4,
		MaxPerWorkerBatch: 128,
		OptimizerFactor:   1.0,
		CPUStateBytes:     64 << 10,
		SwapContextBytes:  640 << 20,
		DatasetSamples:    1_281_167,
	}
}

// Seq2Seq is the RNN translation model on Tatoeba: 45M parameters.
func Seq2Seq() Model {
	return Model{
		Name:              "Seq2Seq",
		Letter:            "D",
		Kind:              "RNN",
		Domain:            "NLP",
		Dataset:           "Tatoeba",
		Params:            45_000_000,
		PerSampleTime:     8 * time.Millisecond,
		KernelOverhead:    30 * time.Millisecond,
		OverlapFraction:   0.3,
		MaxPerWorkerBatch: 96,
		OptimizerFactor:   1.0,
		CPUStateBytes:     96 << 10,
		SwapContextBytes:  2048 << 20,
		DatasetSamples:    500_000,
	}
}

// Transformer is the attention model on WMT'16: 47M parameters. Its small
// per-sample compute and large activation footprint make it the model that
// suffers most from Litz-style context switching (Figure 16).
func Transformer() Model {
	return Model{
		Name:              "Transformer",
		Letter:            "E",
		Kind:              "Attention",
		Domain:            "NLP",
		Dataset:           "WMT'16",
		Params:            47_000_000,
		PerSampleTime:     6 * time.Millisecond,
		KernelOverhead:    25 * time.Millisecond,
		OverlapFraction:   0.45,
		MaxPerWorkerBatch: 80,
		OptimizerFactor:   1.0,
		CPUStateBytes:     96 << 10,
		SwapContextBytes:  4608 << 20,
		DatasetSamples:    4_500_000,
	}
}
