package dataset

import "fmt"

// Wide synthesizes a flat record stream with a controlled number of
// ground-truth entities, built to scale entity discovery: the interesting
// axis there is the number of *distinct key sets* reaching Bimax, which
// real datasets cap at a few thousand. Every entity carries a
// disjoint block of mandatory keys plus a block of optional keys sampled
// per record, so distinct-set count grows with both entity count and
// record count (up to 2^wideOptional subsets per entity). A small fraction
// of records additionally carry one of two shared keys, so entities
// overlap enough that GreedyMerge has covers to consider — but the shared
// keys are deliberately occasional: a key present in every record would
// put every key set in one posting list and turn the inverted index's
// candidate walk back into a full scan.
func Wide(nEntities int) *Generator {
	return &Generator{
		Name: fmt.Sprintf("wide-%d", nEntities),
		Description: fmt.Sprintf("synthetic flat records over %d entities with "+
			"per-record optional-key subsets; entity-scaling benchmark input", nEntities),
		Entities: wideEntityNames(nEntities),
		DefaultN: 50 * nEntities,
		Generate: func(n int, seed int64) []Record {
			g := newGen(seed)
			out := make([]Record, 0, n)
			for i := 0; i < n; i++ {
				e := g.r.Intn(nEntities)
				rec := map[string]any{}
				for k := 0; k < wideMandatory; k++ {
					rec[wideKey(e, "k", k)] = g.num(100)
				}
				for k := 0; k < wideOptional; k++ {
					if g.chance(0.5) {
						rec[wideKey(e, "o", k)] = g.word()
					}
				}
				if g.chance(0.15) {
					rec[fmt.Sprintf("shared%d", g.r.Intn(2))] = g.id("s")
				}
				out = append(out, record(rec, wideEntityName(e)))
			}
			return out
		},
	}
}

const (
	wideMandatory = 4
	wideOptional  = 6
)

func wideKey(entity int, class string, k int) string {
	return fmt.Sprintf("e%d_%s%d", entity, class, k)
}

func wideEntityName(e int) string { return fmt.Sprintf("entity%d", e) }

func wideEntityNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = wideEntityName(i)
	}
	return out
}

// WideRegistry returns the wide generators the entity package checks its
// indexed clustering against the quadratic reference on. They are deliberately not part of Registry: the golden
// byte-equivalence suite and the experiment defaults iterate the paper's
// thirteen datasets, and the wide family is a synthetic scaling probe, not
// an evaluation corpus.
func WideRegistry() []*Generator {
	return []*Generator{Wide(16), Wide(64), Wide(256)}
}
