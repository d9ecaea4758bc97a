// Package dist is a miniature data-parallel execution framework standing in
// for the Apache Spark substrate of the paper's implementation. It provides
// one bounded fan-out primitive (Pool) and, on top of it, partitioned map
// and fold (fan-in aggregation) over in-memory slices.
//
// The paper's key observation about K-reduction is that its merge operator
// is commutative and associative, so schema extraction can run as a
// partitioned fold followed by a combine tree — exactly the shape Fold
// implements. JXPLAIN's global heuristics break this property, which is why
// core.Pipeline instead runs as a sequence of whole-collection passes
// (each of which is itself parallelized through this package).
package dist

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Pool bounds the goroutines of a fan-out. A nil pool runs everything
// sequentially on the caller's goroutine. The pool never blocks waiting
// for a slot: when all slots are busy the work item runs inline on the
// caller's goroutine, which keeps recursive fan-out deadlock-free (a
// parent holding no slot can always make progress on its own children)
// and caps live goroutines at the pool's width.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool with the given parallelism, or nil when
// workers <= 1 (sequential).
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// ForEach runs fn(0..n-1), concurrently when slots are available, and
// returns once all calls complete. Callers obtain determinism by writing
// results into position i of a pre-sized slice and combining in index
// order after ForEach returns.
//
//jx:pool inline-fallback fan-out; callers write results by index per the ForEach contract
func (p *Pool) ForEach(n int, fn func(i int)) {
	if p == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}

// split partitions n items into at most workers contiguous ranges.
func split(n, workers int) [][2]int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 0 {
		return nil
	}
	per := n / workers
	rem := n % workers
	parts := make([][2]int, 0, workers)
	start := 0
	for i := 0; i < workers; i++ {
		size := per
		if i < rem {
			size++
		}
		parts = append(parts, [2]int{start, start + size})
		start += size
	}
	return parts
}

// Map applies fn to every item in parallel and returns the results in input
// order.
func Map[T, U any](items []T, workers int, fn func(T) U) []U {
	out := make([]U, len(items))
	ForEach(len(items), workers, func(i int) { out[i] = fn(items[i]) })
	return out
}

// Fold reduces items with a partitioned fold: each worker folds its range
// into a fresh accumulator with add, then the per-worker accumulators are
// combined left-to-right. combine must be associative for the result to be
// independent of the partitioning; add(acc, item) may mutate and return acc.
func Fold[T, A any](items []T, workers int, newAcc func() A, add func(A, T) A, combine func(A, A) A) A {
	parts := split(len(items), workers)
	if len(parts) == 0 {
		return newAcc()
	}
	accs := make([]A, len(parts))
	NewPool(len(parts)).ForEach(len(parts), func(pi int) {
		acc := newAcc()
		for i := parts[pi][0]; i < parts[pi][1]; i++ {
			acc = add(acc, items[i])
		}
		accs[pi] = acc
	})
	result := accs[0]
	for _, a := range accs[1:] {
		result = combine(result, a)
	}
	return result
}

// ForEach runs fn over every index in parallel, one contiguous range per
// worker; use when results are written into caller-owned structures
// indexed by i.
func ForEach(n, workers int, fn func(i int)) {
	parts := split(n, workers)
	NewPool(len(parts)).ForEach(len(parts), func(pi int) {
		for i := parts[pi][0]; i < parts[pi][1]; i++ {
			fn(i)
		}
	})
}
