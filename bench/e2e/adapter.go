package main

// adapter.go holds every import of repository packages the gated driver
// uses. It goes through the root elan package wherever that re-exports
// the type, so an API collapse (ROADMAP item 2) is a one-file follow-up
// here rather than a rewrite of the driver. The only internal import is
// the delta checkpoint store, which FleetConfig takes by its internal type
// and the root package has no constructor for.

import (
	"context"
	"io"
	"time"

	"github.com/elan-sys/elan"
	"github.com/elan-sys/elan/internal/checkpoint"
)

type (
	fleet      = elan.Fleet
	dataset    = elan.Dataset
	spanRecord = elan.SpanRecord
	span       = elan.Span
)

// wall is the only time source of the benchmark: the repository's
// clock-policy check forbids direct time.Now outside internal/clock, and
// the benchmark's files are inside the tree that check walks.
var wall = elan.WallClock()

func now() time.Time                  { return wall.Now() }
func since(t time.Time) time.Duration { return wall.Since(t) }

// telemetrySet is the product's full telemetry: span recorder, metrics
// registry and flight ring, as FleetConfig exposes them.
type telemetrySet struct {
	rec    *elan.TraceRecorder
	reg    *elan.MetricsRegistry
	flight *elan.FlightRecorder
}

// flightSlots is the flight ring size of churn_observed's product
// configuration.
const flightSlots = 4096

func newTelemetry() *telemetrySet {
	return &telemetrySet{
		rec:    elan.NewTraceRecorder(wall, 0),
		reg:    elan.NewMetricsRegistry(),
		flight: elan.NewFlightRecorder(flightSlots),
	}
}

// counter reads one of the fleet's named counters.
func (t *telemetrySet) counter(name string) int64 { return t.reg.Counter(name).Value() }

func genDataset(seed int64, rows, features, classes int) (*dataset, error) {
	return elan.GenDataset(seed, rows, features, classes)
}

// newCluster builds the simulated cluster a workload places its workers
// on: the paper's 8x8 testbed, or a 2-node x 4-GPU cluster on which eight
// workers span both nodes and get the hierarchical allreduce.
func newCluster(kind clusterKind) (*elan.Cluster, error) {
	geom := elan.DefaultGeometry()
	switch kind {
	case noCluster:
		return nil, nil
	case twoByFour:
		geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 2, 2
	}
	return elan.NewCluster(geom)
}

// startFleet builds and starts one fleet for w. tel may be nil (telemetry
// off, the zero-cost default).
func startFleet(w workload, seed int64, ds *dataset, tel *telemetrySet) (*fleet, error) {
	cl, err := newCluster(w.cluster)
	if err != nil {
		return nil, err
	}
	cfg := elan.FleetConfig{
		Dataset:     ds,
		LayerSizes:  w.layers,
		Workers:     w.workers,
		TotalBatch:  w.totalBatch,
		LR:          w.lr,
		Momentum:    0.9,
		Seed:        seed,
		Checkpoints: checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
		Cluster:     cl,
		BucketElems: w.bucketElems,
	}
	if tel != nil {
		cfg.Tracer, cfg.Metrics, cfg.Flight = tel.rec, tel.reg, tel.flight
	}
	f, err := elan.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Start(context.Background()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// attribTotals folds fleet spans into the compute/comm/coord/stall totals
// of elan.Attribute.
func attribTotals(spans []spanRecord) (total, compute, comm, coord, stall time.Duration) {
	a := elan.Attribute(spans)
	return a.Total, a.Compute, a.Comm, a.Coord, a.Stall
}

func writeSpans(w io.Writer, spans []spanRecord) error { return elan.WriteSpans(w, spans) }
