package moment

import (
	"fmt"

	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/sample"
	"moment/internal/units"
)

// ModelKind selects GraphSAGE or GAT.
type ModelKind = gnn.ModelKind

// TrainConfig parameterizes a real (functional) training run on a
// scaled-down instance of a catalog dataset: the simulator handles
// paper-scale performance, this path verifies the GNN math end to end.
type TrainConfig struct {
	Dataset  Dataset
	Model    ModelKind
	Vertices int // scaled instance size (e.g. 2000)
	Epochs   int
	Seed     int64

	// Optional overrides (zero values pick sensible small-scale defaults).
	FeatureDim int     // default 32
	Classes    int     // default 4
	Hidden     int     // default 32 (SAGE) / 8 per head (GAT)
	BatchSize  int     // default 64
	TrainFrac  float64 // default 0.3
	Fanouts    []int   // default [8, 4]
	LR         float32 // default 0.01 (Adam)

	// LocalityTiers and LocalityBias install tier-aware neighbor sampling:
	// when a neighborhood is over-fanout, each draw prefers (with
	// probability LocalityBias) the faster-tier of two uniform candidates.
	// LocalityTiers is a per-vertex storage tier (0 = GPU, 1 = CPU, 2 = SSD); zero
	// bias leaves sampling exactly uniform.
	LocalityTiers []uint8
	LocalityBias  float64
}

// TrainResult reports per-epoch training statistics.
type TrainResult struct {
	Losses     []float64
	Accuracies []float64
	Sampled    int // unique vertices touched over the run
}

// TrainScaled generates a scaled synthetic instance with the dataset's
// access skew, trains the chosen model with real forward/backward passes,
// and returns the loss/accuracy curves.
func TrainScaled(cfg TrainConfig) (*TrainResult, error) {
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("moment: TrainScaled needs a positive vertex count")
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("moment: TrainScaled needs a positive epoch count")
	}
	if cfg.FeatureDim == 0 {
		cfg.FeatureDim = 32
	}
	if cfg.Classes == 0 {
		cfg.Classes = 4
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.3
	}
	if cfg.Fanouts == nil {
		cfg.Fanouts = []int{8, 4}
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}

	g, err := cfg.Dataset.Scaled(cfg.Vertices, cfg.Seed)
	if err != nil {
		return nil, err
	}
	feats, err := graph.RandomFeatures(g.N(), cfg.FeatureDim, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	labels, err := graph.Labels(feats, cfg.Classes)
	if err != nil {
		return nil, err
	}
	var model gnn.Model
	switch cfg.Model {
	case gnn.KindGAT:
		hidden := cfg.Hidden
		if hidden == 0 {
			hidden = 8
		}
		model, err = gnn.NewGAT(gnn.GATConfig{
			InDim: cfg.FeatureDim, Hidden: hidden, Heads: 2,
			Classes: cfg.Classes, Seed: cfg.Seed + 2,
		})
	case gnn.KindGCN:
		hidden := cfg.Hidden
		if hidden == 0 {
			hidden = 32
		}
		model, err = gnn.NewGCN(gnn.GCNConfig{
			InDim: cfg.FeatureDim, Hidden: hidden,
			Classes: cfg.Classes, Seed: cfg.Seed + 2,
		})
	default:
		hidden := cfg.Hidden
		if hidden == 0 {
			hidden = 32
		}
		model, err = gnn.NewSAGE(gnn.SAGEConfig{
			InDim: cfg.FeatureDim, Hidden: hidden,
			Classes: cfg.Classes, Seed: cfg.Seed + 2,
		})
	}
	if err != nil {
		return nil, err
	}
	smp, err := sample.NewSampler(g, cfg.Fanouts, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	if cfg.LocalityBias > 0 || cfg.LocalityTiers != nil {
		if err := smp.SetLocality(cfg.LocalityTiers, cfg.LocalityBias); err != nil {
			return nil, err
		}
	}
	it, err := sample.NewBatchIterator(g, cfg.TrainFrac, cfg.BatchSize, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	tr, err := gnn.NewTrainer(model, gnn.NewAdam(cfg.LR), smp, it, feats, labels)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{}
	for e := 0; e < cfg.Epochs; e++ {
		st, err := tr.Epoch()
		if err != nil {
			return nil, err
		}
		res.Losses = append(res.Losses, st.Loss)
		res.Accuracies = append(res.Accuracies, st.Accuracy)
		res.Sampled += st.Sampled
	}
	return res, nil
}

// ProfileHotness runs the §3.3 pre-sampling pass on a scaled instance and
// returns the normalized per-vertex access frequencies DDAK consumes.
func ProfileHotness(d Dataset, vertices int, seed int64) ([]float64, error) {
	g, err := d.Scaled(vertices, seed)
	if err != nil {
		return nil, err
	}
	return sample.ProfileHotness(g, []int{8, 4}, 0.1, 128, 2, seed+1)
}

// TimeToAccuracy couples the two halves of the library: the functional
// path measures how many epochs the model needs to reach a target
// accuracy (on a scaled instance with the dataset's skew), the performance
// path prices each epoch at paper scale on the chosen machine — together
// they estimate wall-clock time-to-accuracy, the metric a practitioner
// sizing a Moment machine actually cares about.
type TimeToAccuracy struct {
	// Epochs is the number of training epochs until the target was hit.
	Epochs int
	// ReachedAccuracy is the accuracy after those epochs.
	ReachedAccuracy float64
	// EpochTime is the simulated per-epoch wall time at paper scale.
	EpochTime units.Duration
	// Total is Epochs × EpochTime.
	Total units.Duration
	// Curve holds the per-epoch accuracies observed.
	Curve []float64
}

// EstimateTimeToAccuracy trains until target accuracy (or maxEpochs) on the
// scaled instance, simulates one paper-scale epoch under sim, and combines
// the two. sim.Workload.Dataset and train.Dataset should match.
func EstimateTimeToAccuracy(sim SimConfig, train TrainConfig, target float64, maxEpochs int) (*TimeToAccuracy, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("moment: target accuracy %v out of (0,1]", target)
	}
	if maxEpochs <= 0 {
		return nil, fmt.Errorf("moment: non-positive epoch budget")
	}
	epoch, err := Simulate(sim)
	if err != nil {
		return nil, err
	}
	if epoch.OOM != "" {
		return nil, fmt.Errorf("moment: configuration cannot run: %s", epoch.OOM)
	}
	train.Epochs = maxEpochs
	run, err := TrainScaled(train)
	if err != nil {
		return nil, err
	}
	res := &TimeToAccuracy{EpochTime: epoch.EpochTime, Curve: run.Accuracies}
	for i, acc := range run.Accuracies {
		res.Epochs = i + 1
		res.ReachedAccuracy = acc
		if acc >= target {
			break
		}
	}
	res.Total = units.Seconds(epoch.EpochTime.Sec() * float64(res.Epochs))
	return res, nil
}
