package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jxplain/internal/jsontype"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
)

func TestSampleBag(t *testing.T) {
	bag := &jsontype.Bag{}
	bag.AddN(jsontype.Number, 1000)
	bag.AddN(jsontype.String, 1000)
	s := SampleBag(bag, 0.1, 7)
	if s.Len() < 120 || s.Len() > 280 {
		t.Errorf("10%% of 2000 should be ≈200, got %d", s.Len())
	}
	if s.CountOf(jsontype.Number) == 0 || s.CountOf(jsontype.String) == 0 {
		t.Error("both common types should survive sampling")
	}
	// Determinism.
	s2 := SampleBag(bag, 0.1, 7)
	if s.Len() != s2.Len() {
		t.Error("sampling must be deterministic per seed")
	}
}

func TestSampleBagNeverEmpty(t *testing.T) {
	bag := jsontype.NewBag(jsontype.Bool)
	s := SampleBag(bag, 0.0001, 1)
	if s.Len() == 0 {
		t.Error("non-empty bag must stay non-empty")
	}
	if SampleBag(&jsontype.Bag{}, 0.5, 1).Len() != 0 {
		t.Error("empty bag stays empty")
	}
}

// TestSampleBagPinned pins the exact draw for a fixed seed: the binomial
// sampler must stay deterministic across runs and platforms (the
// Config.Seed contract).
func TestSampleBagPinned(t *testing.T) {
	bag := &jsontype.Bag{}
	bag.AddN(jsontype.Number, 1000)
	bag.AddN(jsontype.String, 500)
	bag.AddN(jsontype.Bool, 3)
	s := SampleBag(bag, 0.1, 7)
	got := fmt.Sprintf("%d/%d/%d", s.CountOf(jsontype.Number), s.CountOf(jsontype.String), s.CountOf(jsontype.Bool))
	if want := "116/45/0"; got != want {
		t.Errorf("SampleBag(seed=7) drew %s, want %s", got, want)
	}
}

// TestSampleBagLargeMultiplicity exercises the O(distinct) property: a
// multiplicity in the tens of millions must sample in a handful of draws,
// not one Bernoulli per occurrence, and still land on the right mean.
func TestSampleBagLargeMultiplicity(t *testing.T) {
	bag := &jsontype.Bag{}
	const n = 50_000_000
	bag.AddN(jsontype.Number, n)
	s := SampleBag(bag, 0.001, 11)
	mean := float64(n) * 0.001
	if got := float64(s.CountOf(jsontype.Number)); got < mean*0.95 || got > mean*1.05 {
		t.Errorf("kept %v of %d at p=0.001, want ≈%v", got, n, mean)
	}
}

func TestPipelineWithDetectionSample(t *testing.T) {
	// A pharma-like collection: even a small detection sample should find
	// the collection and keep recall at 1 on seen data.
	var types []*jsontype.Type
	for i := 0; i < 800; i++ {
		src := fmt.Sprintf(`{"counts":{"D%d":1,"D%d":2,"D%d":3}}`, i%97, (i+13)%97, (i+31)%97)
		types = append(types, ty(t, src))
	}
	cfg := Default()
	cfg.DetectionSample = 0.05
	cfg.Seed = 3
	s := PipelineTypes(types, cfg)
	colls := schema.CountNodes(s, func(n schema.Schema) bool {
		return n.Node() == schema.NodeObjectCollection
	})
	if colls == 0 {
		t.Errorf("sampled detection should still find the collection: %s", s)
	}
	if r := metrics.Recall(s, types); r != 1 {
		t.Errorf("recall on training data = %v", r)
	}
	// Exact mode (sample = 0 and >= 1) is unchanged.
	cfg.DetectionSample = 0
	exact0 := PipelineTypes(types, cfg)
	cfg.DetectionSample = 1
	exact1 := PipelineTypes(types, cfg)
	if !schema.Equal(exact0, exact1) {
		t.Error("DetectionSample 0 and 1 must both be exact")
	}
}

// TestSampledStatsMatchWalker pins the sampled pass ①: Accumulator.Stats
// derives its rows from a sketch of the sample, and those rows must equal
// the sequential walker's over the same sample — decisions exactly,
// evidence within pathStatsEqual's tolerance.
func TestSampledStatsMatchWalker(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		bag := &jsontype.Bag{}
		for i := 0; i < 100+r.Intn(400); i++ {
			bag.Add(randomRecord(r))
		}
		for _, f := range []float64{0.05, 0.3} {
			cfg := Default()
			cfg.DetectionSample = f
			cfg.Seed = int64(trial)
			acc := NewAccumulator(cfg)
			acc.AddBag(bag)
			want := CollectPathStats(SampleBag(bag, f, cfg.Seed), cfg)
			if diff := pathStatsEqual(want, acc.Stats()); diff != "" {
				t.Fatalf("trial %d, sample %v: %s", trial, f, diff)
			}
		}
	}
}
