package jsontype_test

import (
	"encoding/json"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

// TestScanSteadyStateAllocatesNothing pins the scanner's claim: once every
// distinct type of a stream is interned and the scanner has seen its keys
// and shapes, scanning a record performs no heap allocation.
func TestScanSteadyStateAllocatesNothing(t *testing.T) {
	g, ok := dataset.ByName("github")
	if !ok {
		t.Fatal("github generator missing")
	}
	var docs [][]byte
	for _, rec := range g.Generate(300, 1) {
		doc, err := json.Marshal(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	scan := jsontype.NewScan()
	scanAll := func() {
		for _, doc := range docs {
			if _, err := scan(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAll()
	if allocs := testing.AllocsPerRun(10, scanAll); allocs != 0 {
		t.Errorf("re-scanning %d interned records: %.2f allocations per record, want 0", len(docs), allocs/float64(len(docs)))
	}
}
