package jsontype_test

import (
	"encoding/json"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

// TestShapeSpeculationHitRate measures how many objects shape
// speculation serves on the inputs of the four perfbench workloads (at a
// tenth of their size), and pins that it serves most objects of the
// event log it was built for. The shares are logged for `go test -v`.
func TestShapeSpeculationHitRate(t *testing.T) {
	workloads := []struct {
		name    string
		phases  []string
		records int // per phase
		min     float64
	}{
		{"events", []string{"github"}, 4000, 0.6},
		{"distinct", []string{"twitter"}, 1600, 0},
		{"shard", []string{"pharma"}, 2000, 0},
		{"live", []string{"github", "twitter", "nyt", "synapse", "github", "twitter"}, 400, 0},
	}
	for _, w := range workloads {
		var docs [][]byte
		for i, name := range w.phases {
			g, ok := dataset.ByName(name)
			if !ok {
				t.Fatalf("%s generator missing", name)
			}
			for _, rec := range g.Generate(w.records, int64(3+i)) {
				doc, err := json.Marshal(rec.Value)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, doc)
			}
		}
		objects, hits, err := jsontype.SpeculationHits(docs)
		if err != nil {
			t.Fatal(err)
		}
		share := float64(hits) / float64(objects)
		t.Logf("%s: %d of %d objects hit (%.1f%%)", w.name, hits, objects, 100*share)
		if share < w.min {
			t.Errorf("%s: speculation served %.1f%% of objects, want at least %.0f%%", w.name, 100*share, 100*w.min)
		}
	}
}
