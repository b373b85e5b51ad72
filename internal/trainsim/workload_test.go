package trainsim

import (
	"math"
	"reflect"
	"testing"

	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/obs"
	"moment/internal/topology"
)

func dataset(t *testing.T, name string) graph.Dataset {
	t.Helper()
	d, err := graph.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestComputeStatsIG(t *testing.T) {
	stats, err := ComputeStats(Workload{Dataset: dataset(t, "IG"), Model: gnn.KindSAGE}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2.69M training vertices at batch 8000 -> 337 batches (Table 2).
	if stats.BatchesPerEpoch != 337 {
		t.Errorf("batches = %d, want 337", stats.BatchesPerEpoch)
	}
	// Unique per batch: well above the 8000 seeds, well below the raw
	// 8000×(1+25+250) sample count.
	if stats.UniquePerBatch < 50_000 || stats.UniquePerBatch > 2_208_000 {
		t.Errorf("unique/batch = %.0f out of plausible range", stats.UniquePerBatch)
	}
	if stats.EdgesPerBatch <= 8000*25 {
		t.Errorf("edges/batch = %.0f too low", stats.EdgesPerBatch)
	}
	// Hotness sums to 1 and decreases with rank.
	sum := 0.0
	for i, h := range stats.VirtualHot {
		sum += h
		if h < 0 {
			t.Fatalf("negative hotness at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("hotness sums to %v", sum)
	}
	// Per-vertex hotness density decreases with rank.
	for i := 1; i < len(stats.VirtualHot); i++ {
		d0 := stats.VirtualHot[i-1] / stats.VirtualBytes[i-1]
		d1 := stats.VirtualHot[i] / stats.VirtualBytes[i]
		if d1 > d0*(1+1e-9) {
			t.Fatalf("hotness density not monotone at %d", i)
		}
	}
	// Virtual bytes cover the full feature store.
	total := 0.0
	for _, b := range stats.VirtualBytes {
		total += b
	}
	want := float64(dataset(t, "IG").Vertices) * 4096
	if math.Abs(total-want) > 0.001*want {
		t.Errorf("virtual bytes %.3e, want %.3e", total, want)
	}
}

func TestComputeStatsSkewSensitivity(t *testing.T) {
	base := dataset(t, "IG")
	lo, hi := base, base
	lo.Skew = 0.6
	hi.Skew = 1.1
	sLo, err := ComputeStats(Workload{Dataset: lo}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sHi, err := ComputeStats(Workload{Dataset: hi}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Higher skew -> fewer distinct fetches per batch.
	if sHi.UniquePerBatch >= sLo.UniquePerBatch {
		t.Errorf("skew did not reduce unique: %.0f vs %.0f", sHi.UniquePerBatch, sLo.UniquePerBatch)
	}
	// Higher skew -> more head mass.
	headLo, headHi := 0.0, 0.0
	for i := 0; i < hotDetail; i++ {
		headLo += sLo.VirtualHot[i]
		headHi += sHi.VirtualHot[i]
	}
	if headHi <= headLo {
		t.Errorf("head mass %v <= %v under higher skew", headHi, headLo)
	}
}

func TestComputeStatsDedupFactor(t *testing.T) {
	d := dataset(t, "IG")
	s1, err := ComputeStats(Workload{Dataset: d, DedupFactor: 1.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s05, err := ComputeStats(Workload{Dataset: d, DedupFactor: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s05.UniquePerBatch >= s1.UniquePerBatch {
		t.Errorf("dedup factor did not reduce unique: %.0f vs %.0f",
			s05.UniquePerBatch, s1.UniquePerBatch)
	}
}

// TestComputeStatsBatchBound: a batch cannot hold more seeds than the
// training set has. Up to that bound the per-batch unique count stays
// within the dataset; past it the workload is rejected instead of
// reporting more distinct vertices per batch than exist.
func TestComputeStatsBatchBound(t *testing.T) {
	d := dataset(t, "PA")
	train := d.TrainVertices()
	cases := []struct {
		name  string
		batch int64
		ok    bool
	}{
		{"default", 0, true},
		{"one", 1, true},
		{"paper", 8000, true},
		{"whole train set", train, true},
		{"train set plus one", train + 1, false},
		{"2^40", 1 << 40, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ComputeStats(Workload{Dataset: d, BatchSize: int(tc.batch)}, 0)
			if !tc.ok {
				if err == nil {
					t.Fatalf("batch %d accepted: %.3g unique per batch on %d vertices",
						tc.batch, s.UniquePerBatch, d.Vertices)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.UniquePerBatch <= 0 || s.UniquePerBatch > float64(d.Vertices) {
				t.Errorf("batch %d: %.3g unique per batch, dataset has %d vertices",
					tc.batch, s.UniquePerBatch, d.Vertices)
			}
		})
	}
}

func TestComputeStatsErrors(t *testing.T) {
	d := dataset(t, "IG")
	if _, err := ComputeStats(Workload{Dataset: d, BatchSize: -1}, 0); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := ComputeStats(Workload{Dataset: d, Fanouts: []int{}}, 0); err == nil {
		t.Error("empty fanouts accepted")
	}
	var empty graph.Dataset
	if _, err := ComputeStats(Workload{Dataset: empty}, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSaturate(t *testing.T) {
	if saturate(0, 100) != 0 || saturate(0.5, 0) != 0 {
		t.Error("degenerate saturate")
	}
	if saturate(1, 5) != 1 || saturate(2, 5) != 1 {
		t.Error("p>=1 should saturate to 1")
	}
	// 1-(1-p)^D for small p*D approximates p*D.
	got := saturate(1e-9, 100)
	if math.Abs(got-1e-7) > 1e-9 {
		t.Errorf("small-p saturate = %v", got)
	}
	// Large p*D approaches 1.
	if saturate(0.01, 10_000) < 0.999 {
		t.Error("large draws should saturate")
	}
}

func TestGeneralizedHarmonic(t *testing.T) {
	// Exact for small n.
	exact := 0.0
	for r := 1; r <= 500; r++ {
		exact += math.Pow(float64(r), -0.9)
	}
	got := generalizedHarmonic(500, 0.9)
	if math.Abs(got-exact) > 1e-9 {
		t.Errorf("H(500,0.9) = %v, want %v", got, exact)
	}
	// s=1 path and monotonicity in n.
	h1 := generalizedHarmonic(1_000_000, 1)
	h2 := generalizedHarmonic(10_000_000, 1)
	if h2 <= h1 {
		t.Error("harmonic not increasing")
	}
	// ~ln(n) + gamma for s=1.
	want := math.Log(1e6) + 0.5772
	if math.Abs(h1-want) > 0.05 {
		t.Errorf("H(1e6,1) = %v, want ~%v", h1, want)
	}
}

func TestRankBucketsCoverage(t *testing.T) {
	ranks, counts := rankBuckets(1_000_000, 500)
	total := 0.0
	for i, c := range counts {
		if c < 1 {
			t.Fatalf("bucket %d count %v", i, c)
		}
		total += c
	}
	if math.Abs(total-1_000_000) > 1 {
		t.Errorf("buckets cover %v of 1e6", total)
	}
	// Ranks strictly increasing.
	for i := 1; i < len(ranks); i++ {
		if ranks[i] <= ranks[i-1] {
			t.Fatalf("ranks not increasing at %d", i)
		}
	}
	// Small n: every rank individual.
	r2, c2 := rankBuckets(100, 500)
	if len(r2) != 100 || c2[0] != 1 {
		t.Errorf("small-n buckets: %d ranks", len(r2))
	}
}

// TestGivenStatsReusedOnlyForSameInputs: Config.Stats is reused when
// ComputeStats derived it from the config's own normalized workload (the
// model aside) and bucket count, and derived afresh otherwise — a profile
// of other inputs, or one built by hand, is never used.
func TestGivenStatsReusedOnlyForSameInputs(t *testing.T) {
	// computedFrom compares Workload field by field; a new field must be
	// added there (or be shown not to enter the profile, like Model).
	if n := reflect.TypeOf(Workload{}).NumField(); n != 7 {
		t.Fatalf("Workload has %d fields, computedFrom knows 7", n)
	}
	base := classicCfg(t, topology.MachineA(), topology.LayoutC, "IG")
	w := base.Workload.Defaults()
	w.NumGPUs = base.Machine.NumGPUs
	given, err := ComputeStats(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		edit  func(c *Config)
		reuse bool
	}{
		{"same inputs", func(c *Config) {}, true},
		{"explicit default buckets", func(c *Config) { c.VirtualVertices = 50_000 }, true},
		{"other model", func(c *Config) { c.Workload.Model = gnn.KindGAT }, true},
		{"batch size", func(c *Config) { c.Workload.BatchSize = 4000 }, false},
		{"fanouts", func(c *Config) { c.Workload.Fanouts = []int{25, 15} }, false},
		{"virtual vertices", func(c *Config) { c.VirtualVertices = 20_000 }, false},
		{"dedup factor", func(c *Config) { c.Workload.DedupFactor = 0.6 }, false},
		{"epoch batches", func(c *Config) { c.Workload.EpochBatches = 10 }, false},
		{"dataset", func(c *Config) { c.Workload.Dataset = dataset(t, "PA") }, false},
		{"hand-built", func(c *Config) { c.Stats = &Stats{BatchesPerEpoch: 1} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Stats = given
			tc.edit(&cfg)
			o := obs.New()
			cfg.Observer = o
			_, stats, err := PlanDemand(cfg)
			if err != nil {
				t.Fatal(err)
			}
			computed := o.Counter("trainsim_stats_computed_total").Value()
			if tc.reuse != (stats == given) || tc.reuse != (computed == 0) {
				t.Fatalf("reused %v with %v computed, want reuse %v", stats == given, computed, tc.reuse)
			}
			cw := cfg.Workload.Defaults()
			cw.NumGPUs = cfg.Machine.NumGPUs
			want, err := ComputeStats(cw, cfg.VirtualVertices)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats, want) {
				t.Error("profile differs from ComputeStats on the config's own inputs")
			}
		})
	}
}
