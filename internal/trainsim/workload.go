// Package trainsim simulates end-to-end multi-GPU out-of-core GNN training
// epochs at paper scale: it derives the per-epoch feature-access workload
// analytically from the dataset's access skew (the stand-in for running
// pre-sampling on a terabyte graph), plans data placement with DDAK (or the
// hash baseline), predicts epoch I/O time with the max-flow network
// (flownet), measures it with the flow-level fabric simulator (simnet), and
// combines I/O with the GNN compute and sampling cost models into a
// pipelined epoch time (paper §3.1 System Runtime).
package trainsim

import (
	"fmt"
	"math"
	"slices"

	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/sample"
)

// Workload fixes the training job the paper evaluates (§4.1): a dataset,
// a model, batch size 8000, and 2-hop fan-outs [25, 10].
type Workload struct {
	Dataset   graph.Dataset
	Model     gnn.ModelKind
	BatchSize int
	Fanouts   []int
	NumGPUs   int

	// DedupFactor corrects the independent-draw assumption of the
	// analytic distinct-vertex estimator: sampled neighborhoods of a
	// batch overlap heavily on real community-structured graphs, so the
	// effective number of independent draws is DedupFactor × raw draws.
	// Calibrated to the per-batch unique counts GNNLab/Legion report for
	// 8000×[25,10] sampling (default 0.5).
	DedupFactor float64

	// EpochBatches overrides the number of mini-batches per epoch
	// (default: ceil(TrainVertices/BatchSize)). Multi-node runs use it to
	// hand each node its shard of the epoch.
	EpochBatches int
}

// Defaults fills unset fields with the paper's configuration.
func (w Workload) Defaults() Workload {
	if w.BatchSize == 0 {
		w.BatchSize = 8000
	}
	if w.Fanouts == nil {
		w.Fanouts = sample.DefaultFanouts
	}
	if w.NumGPUs == 0 {
		w.NumGPUs = 4
	}
	if w.DedupFactor == 0 {
		w.DedupFactor = 0.5
	}
	return w
}

// Stats is the analytically derived per-epoch access profile.
type Stats struct {
	BatchesPerEpoch int     // total mini-batches per epoch
	UniquePerBatch  float64 // expected distinct vertices fetched per batch
	EdgesPerBatch   float64 // sampled edges per batch (compute cost input)
	FetchBytesBatch float64 // feature bytes fetched per batch (all GPUs' share)
	FetchBytesEpoch float64 // feature bytes fetched per epoch (whole job)

	// Virtual vertices: rank buckets of the dataset's vertices, hot
	// first. Hot carries the expected per-epoch fetch mass (normalized to
	// sum 1); Bytes the embedding storage of the bucket.
	VirtualHot   []float64
	VirtualBytes []float64

	// from and nVirtual record what ComputeStats derived the profile from:
	// the normalized workload without its Model (the model does not enter
	// the profile) and the resolved bucket count. Config.Stats is reused
	// only when both match; a hand-built Stats matches nothing.
	from     Workload
	nVirtual int
}

// statsInputs normalizes ComputeStats' inputs to what a profile records.
func statsInputs(w Workload, nVirtual int) (Workload, int) {
	w = w.Defaults()
	w.Model = 0
	if nVirtual <= 0 {
		nVirtual = 50_000
	}
	return w, nVirtual
}

// computedFrom reports whether s is exactly the profile ComputeStats
// derives from (w, nVirtual).
func (s *Stats) computedFrom(w Workload, nVirtual int) bool {
	w, nVirtual = statsInputs(w, nVirtual)
	f := s.from
	return s.nVirtual == nVirtual && f.Dataset == w.Dataset && f.BatchSize == w.BatchSize &&
		slices.Equal(f.Fanouts, w.Fanouts) && f.NumGPUs == w.NumGPUs &&
		f.DedupFactor == w.DedupFactor && f.EpochBatches == w.EpochBatches
}

// hotDetail is the number of head ranks modeled individually before
// bucketing; the saturation zone of 1-(1-p)^D lives here.
const hotDetail = 1 << 14

// ComputeStats derives the epoch access profile for a workload over
// nVirtual rank buckets (default 50000). The access distribution is
// Zipf(skew) over vertex ranks (what pre-sampling measures, §3.3); the
// expected number of distinct fetches of a vertex with access probability
// p after D neighbor draws is 1-(1-p)^D, which saturates for the hot head
// — exactly the effect that caps cache benefits.
func ComputeStats(w Workload, nVirtual int) (*Stats, error) {
	w = w.Defaults()
	if w.BatchSize <= 0 || w.NumGPUs <= 0 {
		return nil, fmt.Errorf("trainsim: bad workload %+v", w)
	}
	if len(w.Fanouts) == 0 {
		return nil, fmt.Errorf("trainsim: no fanouts")
	}
	from, nVirtual := statsInputs(w, nVirtual)
	from.Fanouts = slices.Clone(from.Fanouts)
	d := w.Dataset
	if d.Vertices <= 0 || d.Skew <= 0 {
		return nil, fmt.Errorf("trainsim: dataset %q lacks scale/skew parameters", d.Name)
	}
	// A batch draws its seeds from the training set, so it cannot hold more
	// of them than the set has; past that the seed mass below would count
	// more distinct vertices per batch than the dataset contains.
	if train := d.TrainVertices(); int64(w.BatchSize) > train {
		return nil, fmt.Errorf("trainsim: batch size %d exceeds dataset %q's %d training vertices",
			w.BatchSize, d.Name, train)
	}
	n := d.Vertices
	s := d.Skew
	harmonic := generalizedHarmonic(n, s)

	// Draw counts per hop: hop 0 draws batch×f0 neighbors; subsequent
	// hops expand the (distinct) frontier by their fanout. Frontier
	// distinctness uses the same saturation form.
	batch := float64(w.BatchSize)
	draws := 0.0
	frontier := batch
	totalEdges := 0.0
	for _, f := range w.Fanouts {
		hopDraws := frontier * float64(f)
		totalEdges += hopDraws
		draws += hopDraws * w.DedupFactor
		frontier = distinctCount(n, s, harmonic, hopDraws*w.DedupFactor)
	}

	// Per-rank fetch probability per batch: head ranks exactly, tail in
	// geometric buckets.
	ranks, counts := rankBuckets(n, nVirtual)
	perBatch := make([]float64, len(ranks))
	uniq := 0.0
	for i, r := range ranks {
		p := math.Pow(r, -s) / harmonic
		q := saturate(p, draws)
		perBatch[i] = q * counts[i]
		uniq += perBatch[i]
	}
	// Seeds are drawn uniformly from the 1% training set and always
	// fetched; spread their mass uniformly over ranks.
	for i := range perBatch {
		perBatch[i] += batch * counts[i] / float64(n)
	}
	uniq += batch

	rowBytes := float64(d.FeatureBytesPerVertex())
	stats := &Stats{
		UniquePerBatch:  uniq,
		EdgesPerBatch:   totalEdges,
		FetchBytesBatch: uniq * rowBytes,
		VirtualHot:      make([]float64, len(ranks)),
		VirtualBytes:    make([]float64, len(ranks)),
		from:            from,
		nVirtual:        nVirtual,
	}
	train := float64(d.TrainVertices())
	stats.BatchesPerEpoch = int(math.Ceil(train / batch))
	if w.EpochBatches > 0 {
		stats.BatchesPerEpoch = w.EpochBatches
	}
	if stats.BatchesPerEpoch == 0 {
		stats.BatchesPerEpoch = 1
	}
	stats.FetchBytesEpoch = stats.FetchBytesBatch * float64(stats.BatchesPerEpoch)
	mass := 0.0
	for _, q := range perBatch {
		mass += q
	}
	for i := range ranks {
		stats.VirtualHot[i] = perBatch[i] / mass
		stats.VirtualBytes[i] = counts[i] * rowBytes
	}
	return stats, nil
}

// rankBuckets returns representative ranks and vertex counts: ranks
// 1..hotDetail individually, then nVirtual geometric buckets to n.
func rankBuckets(n int64, nVirtual int) (ranks, counts []float64) {
	head := int64(hotDetail)
	if head > n {
		head = n
	}
	for r := int64(1); r <= head; r++ {
		ranks = append(ranks, float64(r))
		counts = append(counts, 1)
	}
	if head == n {
		return ranks, counts
	}
	lo := float64(head)
	hi := float64(n)
	ratio := math.Pow(hi/lo, 1/float64(nVirtual))
	prev := lo
	for i := 0; i < nVirtual; i++ {
		next := prev * ratio
		if i == nVirtual-1 {
			next = hi
		}
		cnt := math.Floor(next) - math.Floor(prev)
		if cnt < 1 {
			continue
		}
		// Geometric-mean representative rank of the bucket.
		ranks = append(ranks, math.Sqrt(prev*next))
		counts = append(counts, cnt)
		prev = next
	}
	return ranks, counts
}

// saturate computes 1-(1-p)^D stably.
func saturate(p, draws float64) float64 {
	if p <= 0 || draws <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(draws * math.Log1p(-p))
}

// distinctCount estimates the expected number of distinct vertices among
// `draws` Zipf(s) draws over n ranks.
func distinctCount(n int64, s, harmonic, draws float64) float64 {
	ranks, counts := rankBuckets(n, 2000)
	total := 0.0
	for i, r := range ranks {
		p := math.Pow(r, -s) / harmonic
		total += counts[i] * saturate(p, draws)
	}
	return total
}

// generalizedHarmonic approximates H(n, s) = Σ_{r=1..n} r^-s with exact
// head terms plus an integral tail.
func generalizedHarmonic(n int64, s float64) float64 {
	head := int64(1000)
	if head > n {
		head = n
	}
	sum := 0.0
	for r := int64(1); r <= head; r++ {
		sum += math.Pow(float64(r), -s)
	}
	if head == n {
		return sum
	}
	a, b := float64(head), float64(n)
	if s == 1 {
		sum += math.Log(b / a)
	} else {
		sum += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	return sum
}
