// Package moment is a reproduction of "Moment: Co-optimizing Physical
// Communication Topology and Data Placement for Multi-GPU Out-of-core GNN
// Training" (SC '25): a co-optimizer that, given a multi-GPU multi-SSD
// server's communication topology and a GNN training workload, selects the
// hardware placement (which PCIe slots hold the GPUs and SSDs) by the exact
// max-flow minimum time over the augmented communication graph, and lays
// out vertex embeddings across the GPU/CPU/SSD hierarchy with a
// data-distribution-aware knapsack (DDAK).
//
// Because no GPUs or NVMe drives are assumed, the hardware layer is a
// calibrated simulation substrate (see DESIGN.md for the substitution
// table): a flow-level fabric simulator measures epoch I/O, an NVMe
// queue-pair model prices storage access, and analytic cost models price
// GNN compute. The GNN math itself (GraphSAGE, GAT, sampling, training) is
// implemented for real and runs on scaled-down synthetic datasets.
//
// Quick start:
//
//	plan, err := moment.Optimize(moment.MachineB(), moment.Workload{
//		Dataset: moment.MustDataset("IG"),
//		Model:   moment.GraphSAGE,
//	})
//	fmt.Println(plan.Report())
package moment

import (
	"io"

	"moment/internal/baselines"
	"moment/internal/core"
	"moment/internal/experiments"
	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/placement"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/verify"
)

// Core topology types.
type (
	// Machine is a server's communication topology and device inventory.
	Machine = topology.Machine
	// Placement assigns GPUs and SSDs to attach points.
	Placement = topology.Placement
	// ClassicLayout names the four §2.3 hardware layouts.
	ClassicLayout = topology.ClassicLayout
)

// Workload and simulation types.
type (
	// Workload is a dataset + model training job.
	Workload = trainsim.Workload
	// Dataset carries paper-scale dataset statistics (Table 2).
	Dataset = graph.Dataset
	// SimConfig parameterizes an epoch simulation.
	SimConfig = trainsim.Config
	// EpochResult is one simulated training epoch.
	EpochResult = trainsim.Result
	// Plan is the automatic module's output.
	Plan = core.Plan
	// SearchOptions tunes the placement search.
	SearchOptions = placement.Options
	// ScoreCache memoizes candidate scores across placement searches (set
	// it as SearchOptions.Cache; safe to share between searches).
	ScoreCache = scorecache.Scores
	// Table is a regenerated paper figure or table.
	Table = experiments.Table
)

// NewScoreCache returns a bounded LRU score cache holding up to max
// entries (max <= 0 disables caching).
func NewScoreCache(max int) *ScoreCache { return scorecache.NewScores(max) }

// Fault-injection types (set SimConfig.Faults to degrade an epoch).
type (
	// FaultSchedule is a deterministic, seedable list of hardware fault
	// events (SSD fail-stops, throttles, link downtrains, GPU stragglers,
	// transient error bursts).
	FaultSchedule = faults.Schedule
)

// ParseFaultSpec decodes the command-line fault grammar, e.g.
// "seed=7;kill:ssd2@30;throttle:ssd1@10x0.5+20".
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// Model kinds (§4.1).
const (
	// GraphSAGE is the mean-aggregator model (hidden 256).
	GraphSAGE = gnn.KindSAGE
	// GAT is the attention model (hidden 64, 8 heads).
	GAT = gnn.KindGAT
	// GCN is the graph convolutional model (§3.1 input example).
	GCN = gnn.KindGCN
)

// Classic layouts (§2.3, Figures 1-2).
const (
	LayoutA = topology.LayoutA
	LayoutB = topology.LayoutB
	LayoutC = topology.LayoutC
	LayoutD = topology.LayoutD
)

// PolicyHash is the uniform hash data-placement baseline (§3.3); the zero
// SimConfig.Policy is DDAK.
const PolicyHash = trainsim.PolicyHash

// CachePartitioned makes GPU caches hold distinct vertices, peers served
// over the fabric; the zero SimConfig.Cache replicates every GPU's
// cache.
const CachePartitioned = trainsim.CachePartitioned

// MachineA returns the balanced-PCIe evaluation server (Table 1).
func MachineA() *Machine { return topology.MachineA() }

// MachineB returns the cascaded-PCIe evaluation server (Table 1).
func MachineB() *Machine { return topology.MachineB() }

// MachineC returns one node of the DistDGL cluster (Table 1).
func MachineC() *Machine { return topology.MachineC() }

// ParseMachine reads a machine spec (the offline stand-in for
// lspci/dmidecode extraction; see topology.FormatSpec for the format).
func ParseMachine(r io.Reader) (*Machine, error) { return topology.ParseSpec(r) }

// DatasetByName looks up a catalog dataset.
func DatasetByName(name string) (Dataset, error) { return graph.DatasetByName(name) }

// MustDataset looks up a catalog dataset, panicking on unknown names.
func MustDataset(name string) Dataset {
	d, err := graph.DatasetByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Optimize runs the automatic module (§3.1 Fig 8): profile → placement
// search with symmetry reduction → max-flow scoring → DDAK data placement
// → simulated epoch under the chosen plan. WithObserver traces the run.
func Optimize(m *Machine, w Workload, opts ...Option) (*Plan, error) {
	in := core.Input{Machine: m, Workload: w}
	for _, o := range opts {
		o(&in)
	}
	return core.CoOptimize(in)
}

// OptimizeWith exposes the search knobs.
func OptimizeWith(m *Machine, w Workload, opts SearchOptions) (*Plan, error) {
	return core.CoOptimize(core.Input{Machine: m, Workload: w, Search: opts})
}

// Simulate runs one training epoch under an explicit configuration.
func Simulate(cfg SimConfig) (*EpochResult, error) { return trainsim.SimulateEpoch(cfg) }

// ClassicPlacement builds one of the four §2.3 layouts for machines A/B.
func ClassicPlacement(m *Machine, l ClassicLayout) (*Placement, error) {
	return topology.ClassicPlacement(m, l)
}

// PublishedPlacementB is the Fig 7 layout for machine B.
func PublishedPlacementB(m *Machine) (*Placement, error) {
	return topology.MomentPlacementB(m)
}

// Baseline entry points (§4.1).
var (
	// MGIDS simulates the multi-GPU GIDS baseline.
	MGIDS = baselines.MGIDS
	// MHyperion simulates the multi-GPU Hyperion baseline.
	MHyperion = baselines.MHyperion
	// DistDGL simulates the distributed baseline on cluster C.
	DistDGL = baselines.DistDGL
)

// DefaultDistDGL returns the calibrated cluster configuration.
func DefaultDistDGL() baselines.DistDGLConfig { return baselines.DefaultDistDGL() }

// Experiments regenerates every paper table and figure in order.
func Experiments() ([]*Table, error) { return experiments.All() }

// BenchRecord is one machine-readable benchmark data point.
type BenchRecord = experiments.BenchRecord

// BenchRecords simulates the core benchmark grid (machines A/B × classic
// layouts + the Moment-searched placement) and returns one JSON-ready
// record per configuration.
func BenchRecords() ([]BenchRecord, error) { return experiments.BenchRecords() }

// FleetSweepRecord benchmarks the fleet placement-sweep harness: nodes
// planned cold and serially (baseline) versus through one shared score
// cache with the pooled streaming search, as the "sweep" bench row.
func FleetSweepRecord(nodes int) (BenchRecord, error) {
	return experiments.FleetSweepRecord(nodes)
}

// LongSimRecord benchmarks the long-horizon simulation harness: a
// fault-injected multi-epoch run re-simulated in full every epoch
// (baseline) versus the fault-signature delta cache, as the "longsim"
// bench row.
func LongSimRecord(epochs int) (BenchRecord, error) {
	return experiments.LongSimRecord(epochs)
}

// DriftBenchRecord benchmarks the closed adaptive loop over a long
// drifting horizon against the from-scratch replanning oracle, as the
// "drift" bench row. It errors if the acceptance differential fails:
// adaptive mean epoch within 5% of the oracle's on under half its
// migrated bytes.
func DriftBenchRecord(epochs int) (BenchRecord, error) {
	return experiments.DriftRecord(epochs)
}

// ObsBenchRecord measures the observability hot paths (flight-recorder
// Record, explain Add) with testing.AllocsPerRun and reports them as the
// "obs" bench row. The disabled paths must measure exactly zero
// allocations per call.
func ObsBenchRecord() BenchRecord { return experiments.ObsRecord() }

// CompareReport is a per-experiment diff of two benchmark record sets.
type CompareReport = experiments.CompareReport

// CompareBench diffs fresh benchmark records against a committed baseline
// on epoch time. threshold is the relative slowdown treated as a
// regression (<=0 defaults to 10%); CompareReport.Err is the CI gate.
func CompareBench(baseline, newRecs []BenchRecord, threshold float64) *CompareReport {
	return experiments.CompareBench(baseline, newRecs, threshold)
}

// ReadBenchRecords loads a committed BENCH_*.json record set.
func ReadBenchRecords(path string) ([]BenchRecord, error) {
	return experiments.ReadBenchRecords(path)
}

// EnableSelfChecks turns on planner self-verification: every flow solve,
// placement search, and DDAK layout audits its own output (max-flow
// certificates, capacity and accounting invariants) and fails loudly
// instead of returning a silently wrong plan. Costs roughly one extra
// solve per audited call.
func EnableSelfChecks() { verify.Enable() }
