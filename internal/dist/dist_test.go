package dist

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitCoversAllIndices(t *testing.T) {
	f := func(nRaw, wRaw uint16) bool {
		n := int(nRaw % 1000)
		w := int(wRaw%16) + 1
		parts := split(n, w)
		covered := 0
		prev := 0
		for _, p := range parts {
			if p[0] != prev || p[1] < p[0] {
				return false
			}
			covered += p[1] - p[0]
			prev = p[1]
		}
		return covered == n && prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitZeroWorkersDefaults(t *testing.T) {
	parts := split(10, 0)
	if len(parts) == 0 {
		t.Fatal("split(10, 0) should use default workers")
	}
	total := 0
	for _, p := range parts {
		total += p[1] - p[0]
	}
	if total != 10 {
		t.Errorf("covered %d, want 10", total)
	}
}

func TestMapOrderAndValues(t *testing.T) {
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	out := Map(in, 4, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out := Map(nil, 4, func(x int) int { return x })
	if len(out) != 0 {
		t.Error("map over nil should be empty")
	}
}

func TestFoldSum(t *testing.T) {
	in := make([]int, 1000)
	for i := range in {
		in[i] = i + 1
	}
	got := Fold(in, 7,
		func() int { return 0 },
		func(a, x int) int { return a + x },
		func(a, b int) int { return a + b })
	if got != 1000*1001/2 {
		t.Errorf("fold sum = %d", got)
	}
}

func TestFoldEmpty(t *testing.T) {
	got := Fold(nil, 3,
		func() int { return 42 },
		func(a, x int) int { return a + x },
		func(a, b int) int { return a + b })
	if got != 42 {
		t.Errorf("empty fold should return fresh accumulator, got %d", got)
	}
}

func TestFoldWorkerCountIndependentProperty(t *testing.T) {
	// An associative/commutative fold must give the same result for any
	// worker count — the algebraic property K-reduction relies on.
	f := func(xs []int32, wRaw uint8) bool {
		w := int(wRaw%8) + 1
		sum := func(items []int32, workers int) int64 {
			return Fold(items, workers,
				func() int64 { return 0 },
				func(a int64, x int32) int64 { return a + int64(x) },
				func(a, b int64) int64 { return a + b })
		}
		return sum(xs, 1) == sum(xs, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	n := 777
	visits := make([]int32, n)
	ForEach(n, 5, func(i int) { atomic.AddInt32(&visits[i], 1) })
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be >= 1")
	}
}

func TestPoolNilIsSequential(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if NewPool(w) != nil {
			t.Errorf("NewPool(%d) should be nil (sequential)", w)
		}
	}
	var order []int
	NewPool(1).ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool visited %v, want index order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("nil pool visited %d items, want 5", len(order))
	}
}

// TestPoolBoundedAndReentrant checks the pool's two contracts: at most
// width spawned goroutines plus the inline caller run at once, and a
// fan-out nested inside a pooled call completes (full slots fall back to
// inline execution instead of blocking).
func TestPoolBoundedAndReentrant(t *testing.T) {
	const width = 3
	p := NewPool(width)
	var live, peak atomic.Int32
	visits := make([]int32, 40*10)
	p.ForEach(40, func(i int) {
		p.ForEach(10, func(j int) {
			n := live.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			atomic.AddInt32(&visits[i*10+j], 1)
			live.Add(-1)
		})
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("item %d visited %d times", i, v)
		}
	}
	if got := peak.Load(); got > width+1 {
		t.Errorf("peak concurrency %d exceeds width %d plus the caller", got, width)
	}
}
