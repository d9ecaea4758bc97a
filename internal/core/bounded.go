package core

import (
	"jxplain/internal/jsontype"
)

// Bounded-stream operation (Config.Bounds): the accumulator swaps its two
// unbounded structures for capped counterparts —
//
//   - the exact union bag becomes a weighted reservoir over distinct
//     record types (jsontype.ReservoirBag), so pass ②/③ synthesis runs
//     over at most ReservoirCapacity types;
//   - the cumulative pass-① sketch becomes a live epoch plus a ring of
//     serialized closed windows (sketchRing), so detection statistics
//     cover the recent horizon and trie memory is bounded by the
//     horizon's distinct structure;
//
// with optional exponential decay aging both at every rotation. The
// remaining unbounded term is the global type interner, which is
// append-only by design (pointer identity is the bag's currency); its
// per-type footprint is small and flat-RSS claims are made net of it —
// see DESIGN.md "Unbounded streams" and the bounded-stream tests.

// advance moves the bounded stream's record clock forward by n and
// rotates once when the clock passes the cadence. An add is atomic with
// respect to windows — a burst larger than WindowRecords lands in one
// epoch and closes it, rather than padding the ring with empty windows —
// so windows hold *at least* WindowRecords records. A no-op without
// bounds.
func (a *Accumulator) advance(n int) {
	w := a.cfg.Bounds.WindowRecords
	if w <= 0 {
		return
	}
	a.sinceRotate += n
	if a.sinceRotate >= w {
		a.sinceRotate = 0
		a.rotate()
	}
}

// rotate closes the current epoch: with a ring, the live sketch is
// serialized, pushed (evicting the oldest window beyond the width), and
// replaced by a fresh epoch; without one, decay ages the live sketch in
// place. The reservoir decays on every rotation when a factor is set.
func (a *Accumulator) rotate() {
	b := a.cfg.Bounds
	if a.ring != nil {
		closed := a.sketch
		data, _ := closed.Marshal() // in-memory encode; the error leg is vestigial
		a.ring.push(data)
		a.sketch = NewPathSketch()
		if a.onWindowClose != nil {
			a.onWindowClose(a.ring.closed-1, closed.Records(), closed)
		}
	} else if b.hasDecay() && a.sketch != nil {
		//jx:lint-ignore errtotal Decay asserts factor in (0,1) and hasDecay establishes it
		a.sketch.Decay(b.DecayFactor)
	}
	if b.hasDecay() && a.res != nil {
		//jx:lint-ignore errtotal Decay asserts factor in (0,1) and hasDecay establishes it
		a.res.Decay(b.DecayFactor)
	}
}

// OnWindowClose registers a hook called at every ring rotation with the
// window's index (0-based, monotone), its record count, and the closed
// epoch's sketch. The sketch is detached — the accumulator keeps only its
// serialized form — so the hook may derive statistics from it (e.g. a
// windowed drift diff) at leisure, but must not fold more records in.
// Only ring-configured accumulators rotate windows.
func (a *Accumulator) OnWindowClose(fn func(index, records int, sketch *PathSketch)) {
	a.onWindowClose = fn
}

// unionBag returns the bag passes ② and ③ synthesize from: the exact
// union bag, or a snapshot of the reservoir's retained types.
func (a *Accumulator) unionBag() *jsontype.Bag {
	if a.res != nil {
		return a.res.Snapshot()
	}
	return a.bag
}

// statsSketch returns the sketch pass ① derives from: the cumulative live
// sketch, or the tree-reduced rollup of the retained ring windows plus
// the live epoch, or — under detection sampling, which keeps no sketch —
// a fold of the sampled union bag. Rollup never consumes the live epoch
// (it folds through the copying combine), so more records may be added
// afterwards.
func (a *Accumulator) statsSketch() *PathSketch {
	if a.sketch == nil {
		sample := SampleBag(a.unionBag(), a.cfg.DetectionSample, a.cfg.Seed)
		return sketchFromBag(sample, fanOutWidth(sample.Distinct()))
	}
	if a.ring == nil {
		return a.sketch
	}
	merged, err := a.ring.rollup(a.sketch)
	if err != nil {
		// The ring holds only bytes this process serialized itself; a
		// decode failure is memory corruption, not an input condition.
		//jx:lint-ignore errtotal ring windows are self-serialized, decode failure is an internal invariant violation
		panic("core: corrupt self-serialized window: " + err.Error())
	}
	return merged
}

// Reservoir exposes the bounded union's counters (seen, retained,
// dropped, evictions) for observability; nil in exact mode.
func (a *Accumulator) Reservoir() *jsontype.ReservoirBag { return a.res }

// WindowsClosed returns how many windows have rotated into the ring over
// the accumulator's lifetime (0 without a ring).
func (a *Accumulator) WindowsClosed() int {
	if a.ring == nil {
		return 0
	}
	return a.ring.closed
}

// SketchNodes returns the trie node count of the state pass ① would read
// right now — live sketch plus retained windows decoded — which is the
// memory proxy the flat-RSS experiment asserts on. 0 for sampling
// configurations that keep no sketch.
func (a *Accumulator) SketchNodes() int {
	if a.sketch == nil {
		return 0
	}
	return a.statsSketch().Nodes()
}
