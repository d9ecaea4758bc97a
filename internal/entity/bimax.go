package entity

import "sort"

// Cluster is one discovered entity: a group of input key sets together
// with its maximal element (the union of all member key sets — for
// Bimax-Naive clusters this equals the seed k_max, since all members are
// subsets of the seed; GreedyMerge synthesizes larger maximal elements).
type Cluster struct {
	// Members holds indices into the key-set slice passed to BimaxNaive.
	Members []int
	// Max is the cluster's maximal element.
	Max KeySet
	// Weight is the total record multiplicity of the cluster's members
	// when the clustering ran over weighted (deduplicated) key sets; zero
	// when the input carried no weights. Clustering decisions never depend
	// on it — it exists so per-entity statistics reflect records, not
	// distinct key sets.
	Weight int
}

// indexMinSets is the input size below which the O(n²) reference loop
// beats building the posting index. Both paths produce identical output;
// the constant only trades constant factors.
const indexMinSets = 64

// Bimax implements Algorithm 6: reorder key sets so that similar sets are
// adjacent. Starting from a size-descending order, the algorithm repeatedly
// takes the largest unprocessed set k_max and stably partitions the
// remaining sets into subsets of k_max, overlapping sets, and disjoint
// sets, then advances past the subsets.
//
// The returned slice contains indices into sets, in Bimax order.
func Bimax(sets []KeySet) []int {
	order := sizeDescending(sets)
	bimaxSort(sets, order, nil, nil)
	return order
}

// BimaxNaive implements Algorithm 7: run the Bimax loop, emitting each
// iteration's subset group (the seed k_max and every remaining set
// contained in it) as one cluster.
func BimaxNaive(sets []KeySet) []Cluster {
	return BimaxNaiveWeighted(sets, nil)
}

// BimaxNaiveWeighted is BimaxNaive over deduplicated key sets carrying
// record multiplicities: weights[i] is the number of records whose key set
// is sets[i] (nil means unweighted). The clustering is identical to
// running BimaxNaive over the sets replicated weights[i] times — sizes,
// seeds, and tie-breaks depend only on the distinct sets and their order —
// but costs O(distinct) instead of O(records). Each cluster's Weight is
// the sum of its members' weights.
func BimaxNaiveWeighted(sets []KeySet, weights []int) []Cluster {
	order := sizeDescending(sets)
	var clusters []Cluster
	bimaxSort(sets, order, &clusters, weights)
	return clusters
}

// BimaxNaiveRef is the quadratic reference implementation of Algorithm 7,
// retained for differential tests and the entity scaling benchmark. Output
// is identical to BimaxNaive.
func BimaxNaiveRef(sets []KeySet) []Cluster {
	order := sizeDescending(sets)
	var clusters []Cluster
	bimaxSortRef(sets, order, &clusters, nil)
	return clusters
}

// sizeDescending returns the indices of sets ordered by descending set
// size; ties preserve input order (stable), keeping results deterministic.
func sizeDescending(sets []KeySet) []int {
	sizes := make([]int, len(sets))
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
		sizes[i] = sets[i].Len()
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sizes[order[a]] > sizes[order[b]]
	})
	return order
}

// bimaxSort runs the shared loop of Algorithms 6 and 7 over order in
// place, choosing between the posting-index walk and the reference scan by
// input size. When clusters is non-nil, each iteration's subset group is
// appended to it as a Cluster (with Weight summed from weights when
// non-nil).
func bimaxSort(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	if len(order) < indexMinSets {
		bimaxSortRef(sets, order, clusters, weights)
		return
	}
	bimaxSortIndexed(sets, order, clusters, weights)
}

// bimaxSortRef is the reference O(n²) partition loop: every iteration
// classifies every remaining set against the seed with bitset operations.
func bimaxSortRef(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	for i := 0; i < len(order); {
		kmax := sets[order[i]]
		var sub, overlap, disjoint []int
		for _, idx := range order[i:] {
			k := sets[idx]
			switch {
			case k.SubsetOf(kmax):
				sub = append(sub, idx)
			case !k.Intersects(kmax):
				disjoint = append(disjoint, idx)
			default:
				overlap = append(overlap, idx)
			}
		}
		// Rearrange as sub < overlap < disjoint, preserving relative order.
		pos := i
		pos += copy(order[pos:], sub)
		pos += copy(order[pos:], overlap)
		copy(order[pos:], disjoint)
		if clusters != nil {
			*clusters = append(*clusters, Cluster{
				Members: append([]int(nil), sub...),
				Max:     kmax,
				Weight:  weightOf(sub, weights),
			})
		}
		i += len(sub)
	}
}

// bimaxSortIndexed is the sub-quadratic partition loop: the posting index
// yields only the sets sharing a key with the seed (plus empty sets, which
// are subsets of everything); everything else is disjoint and is neither
// tested nor moved. Only the window span up to the last candidate is
// rewritten per iteration, and only candidates pay a SubsetOf test, so
// iterations over mutually disjoint regions of the key space no longer
// touch each other at all. The resulting order — and the emitted clusters
// — are identical to bimaxSortRef.
func bimaxSortIndexed(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	ix := NewIndex(sets)
	// pos inverts order: pos[id] is the current position of set id. A set
	// is finalized (left the window) once its position drops below i;
	// finalized sets never re-enter, which licenses posting compaction.
	pos := make([]int32, len(sets))
	for p, id := range order {
		pos[id] = int32(p)
	}
	var cands []int32
	var sub, overlap, buf, keys []int
	for i := 0; i < len(order); {
		seed := order[i]
		kmax := sets[seed]
		win := int32(i)
		cands = ix.Candidates(kmax, func(id int32) bool { return pos[id] >= win }, cands[:0])
		// Window-relative order: the stable partition needs candidates in
		// their current order. Sorting (pos<<32)|id keys through sort.Ints
		// instead of sort.Slice-by-pos avoids the reflective swapper and a
		// per-comparison closure — this sort dominates the loop's profile.
		keys = keys[:0]
		for _, id := range cands {
			keys = append(keys, int(pos[id])<<32|int(id))
		}
		sort.Ints(keys)
		for j, k := range keys {
			cands[j] = int32(k & (1<<32 - 1))
		}
		sub, overlap = sub[:0], overlap[:0]
		for _, id := range cands {
			if sets[id].SubsetOf(kmax) {
				sub = append(sub, int(id))
			} else {
				overlap = append(overlap, int(id))
			}
		}
		if clusters != nil {
			*clusters = append(*clusters, Cluster{
				Members: append([]int(nil), sub...),
				Max:     kmax,
				Weight:  weightOf(sub, weights),
			})
		}
		if len(sub) == 1 && len(overlap) == 0 {
			// The seed matched nothing: the window is unchanged.
			i++
			continue
		}
		// Rewrite order[i..last]: sub, then overlap, then the span's
		// non-candidates in their existing order. Non-candidates after the
		// last candidate are untouched — they are disjoint from the seed
		// and already follow everything that moved, so the full window
		// reads sub < overlap < disjoint exactly as the reference loop
		// leaves it.
		last := int(pos[cands[len(cands)-1]])
		buf = append(append(buf[:0], sub...), overlap...)
		for p := i; p <= last; p++ {
			if id := order[p]; !ix.Marked(id) {
				buf = append(buf, id)
			}
		}
		copy(order[i:last+1], buf)
		for p := i; p <= last; p++ {
			pos[order[p]] = int32(p)
		}
		i += len(sub)
	}
}

func weightOf(members []int, weights []int) int {
	if weights == nil {
		return 0
	}
	w := 0
	for _, m := range members {
		w += weights[m]
	}
	return w
}

// Transpose flips a record × feature incidence matrix: the result has one
// key set per feature id in [0, dim), holding the indices of the records
// containing it. Bimax "sorts field order analogously" to record order
// (§6.2) — running Bimax over the transposed sets yields that column
// ordering.
func Transpose(sets []KeySet, dim int) []KeySet {
	words := (len(sets) + wordBits - 1) / wordBits
	cols := make([]KeySet, dim)
	for ri, ks := range sets {
		ks.Each(func(id int) {
			if id < dim {
				if cols[id] == nil {
					cols[id] = make(KeySet, words)
				}
				cols[id][ri/wordBits] |= 1 << (uint(ri) % wordBits)
			}
		})
	}
	for i, c := range cols {
		if c == nil {
			cols[i] = KeySet{}
		} else {
			cols[i] = c.trim()
		}
	}
	return cols
}

// BimaxColumns returns the feature ids in Bimax order: features whose
// record sets are subsets of the densest feature's cluster first, then
// overlapping, then disjoint — placing co-occurring fields adjacently,
// which is how the paper renders Figure-style co-occurrence blocks.
func BimaxColumns(sets []KeySet, dim int) []int {
	return Bimax(Transpose(sets, dim))
}

// GreedyMerge implements Algorithm 8: coalesce Bimax-Naive clusters whose
// maximal elements can be covered by unions of other clusters' maximal
// elements. Clusters are processed in reverse insertion order
// (smallest-seeded first); when a candidate's maximal element is fully
// covered by a set of other active clusters, those clusters are absorbed
// into the candidate and the search repeats with the enlarged maximal
// element. Emitted clusters are final and cannot be absorbed later.
//
// The "minimal" cover of the paper is NP-hard; this uses the standard
// greedy approximation, preferring clusters that cover more uncovered keys
// and breaking ties toward earlier Bimax positions (more similar entities).
//
// Cover searches run over an inverted index of the clusters' maximal
// elements with incrementally maintained per-cluster gain counts (see
// coverState); GreedyMergeRef retains the rescanning reference loop.
func GreedyMerge(naive []Cluster) []Cluster {
	if len(naive) < indexMinSets {
		return greedyMerge(naive, findCoverRef)
	}
	cs := newCoverState(naive)
	return greedyMerge(naive, cs.findCover)
}

// GreedyMergeRef is the reference implementation of Algorithm 8 — every
// cover step rescans all active clusters — retained for differential tests
// and the entity scaling benchmark. Output is identical to GreedyMerge.
func GreedyMergeRef(naive []Cluster) []Cluster {
	return greedyMerge(naive, findCoverRef)
}

// greedyMerge is the shared absorption loop, parameterized by the cover
// search. Active clusters' maximal elements never change (only the — by
// then inactive — candidate's Max grows), which is what lets an indexed
// cover search treat the naive maximal elements as immutable.
func greedyMerge(naive []Cluster, findCover func(work []Cluster, active []bool, target KeySet) []int) []Cluster {
	active := make([]bool, len(naive))
	for i := range active {
		active[i] = true
	}
	// Work on copies: Members and Max grow as clusters absorb others.
	work := make([]Cluster, len(naive))
	for i, c := range naive {
		work[i] = Cluster{Members: append([]int(nil), c.Members...), Max: c.Max, Weight: c.Weight}
	}

	var merged []Cluster
	for cand := len(work) - 1; cand >= 0; cand-- {
		if !active[cand] {
			continue
		}
		active[cand] = false // candidate is being finalized
		for {
			cover := findCover(work, active, work[cand].Max)
			if cover == nil {
				break
			}
			for _, ci := range cover {
				active[ci] = false
				work[cand].Members = append(work[cand].Members, work[ci].Members...)
				work[cand].Max = work[cand].Max.Union(work[ci].Max)
				work[cand].Weight += work[ci].Weight
			}
		}
		merged = append(merged, work[cand])
	}
	// Restore insertion order of surviving clusters (merged was built in
	// reverse) so output remains aligned with Bimax similarity order.
	for l, r := 0, len(merged)-1; l < r; l, r = l+1, r-1 {
		merged[l], merged[r] = merged[r], merged[l]
	}
	return merged
}

// findCoverRef greedily searches for a set cover of target among the
// maximal elements of active clusters. It returns nil when no cover exists
// (some key of target appears in no active cluster). Ties between equally
// covering clusters break toward the latest insertion position: the Bimax
// order places similar entities together, so the nearest preceding cluster
// is the most similar one — the property Example 11 relies on.
func findCoverRef(work []Cluster, active []bool, target KeySet) []int {
	uncovered := target.Clone()
	picked := make([]uint64, (len(work)+wordBits-1)/wordBits)
	var cover []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for i := range work {
			if !active[i] || picked[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
				continue
			}
			gain := work[i].Max.IntersectCount(uncovered)
			if gain > bestGain || (gain == bestGain && gain > 0 && i > best) {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil // some key cannot be covered
		}
		picked[best/wordBits] |= 1 << (uint(best) % wordBits)
		cover = append(cover, best)
		uncovered = uncovered.Minus(work[best].Max)
	}
	return cover
}

// coverState is the indexed cover search: an inverted index over the naive
// clusters' maximal elements plus reusable gain counters and a picked
// bitmask. Per search, gains[j] is maintained as |Max_j ∩ uncovered| for
// every candidate cluster j — initialized by one posting walk over the
// target's keys and decremented incrementally as picked clusters shrink
// the uncovered set — so each cover step selects the best cluster with an
// integer scan over the candidates instead of re-intersecting every active
// cluster's bitset against the residual.
type coverState struct {
	ix     *Index
	gains  []int
	picked []uint64
	cands  []int32
}

func newCoverState(naive []Cluster) *coverState {
	maxes := make([]KeySet, len(naive))
	for i, c := range naive {
		maxes[i] = c.Max
	}
	return &coverState{
		ix:     NewIndex(maxes),
		gains:  make([]int, len(naive)),
		picked: make([]uint64, (len(naive)+wordBits-1)/wordBits),
		// Non-nil from the start: AddGains only tracks first-touch ids
		// when handed a non-nil dst, and cands[:0] must preserve that.
		cands: make([]int32, 0, len(naive)),
	}
}

// findCover is the indexed equivalent of findCoverRef: same greedy choice,
// same tie-break toward the latest insertion position, identical returned
// covers. Inactive clusters are compacted out of the posting lists as the
// walks encounter them (GreedyMerge never reactivates a cluster).
func (cs *coverState) findCover(work []Cluster, active []bool, target KeySet) []int {
	if target.Empty() {
		return nil
	}
	live := func(id int32) bool { return active[id] }
	cs.cands = cs.ix.AddGains(target, live, 1, cs.gains, cs.cands[:0])
	uncovered := target.Clone()
	var cover []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for _, id := range cs.cands {
			j := int(id)
			if cs.picked[j/wordBits]&(1<<(uint(j)%wordBits)) != 0 {
				continue
			}
			gain := cs.gains[j]
			if gain > bestGain || (gain == bestGain && gain > 0 && j > best) {
				best, bestGain = j, gain
			}
		}
		if best < 0 {
			// Some key cannot be covered. cover still holds the partial
			// picks so the scratch reset below clears their bits.
			break
		}
		cs.picked[best/wordBits] |= 1 << (uint(best) % wordBits)
		cover = append(cover, best)
		// Every candidate's gain shrinks by its overlap with the keys the
		// pick just covered; decrementing along the posting lists of the
		// removed keys applies exactly that.
		removed := uncovered.Intersect(work[best].Max)
		cs.ix.AddGains(removed, live, -1, cs.gains, nil)
		uncovered = uncovered.Minus(work[best].Max)
	}
	// Reset scratch state for the next search.
	for _, id := range cs.cands {
		cs.gains[id] = 0
	}
	for _, j := range cover {
		cs.picked[j/wordBits] &^= 1 << (uint(j) % wordBits)
	}
	if !uncovered.Empty() {
		return nil
	}
	return cover
}
