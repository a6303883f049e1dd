package par

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n)
			ForEach(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if seen[i].Swap(true) {
						t.Errorf("workers=%d n=%d: index %d visited twice", workers, n, i)
					}
					hits.Add(1)
				}
			})
			if int(hits.Load()) != n {
				t.Fatalf("workers=%d n=%d: %d visits", workers, n, hits.Load())
			}
		}
	}
}

func TestParallelForEachChunksDeterministic(t *testing.T) {
	// The chunk boundaries must depend only on (workers, n).
	record := func() [][2]int {
		var chunks [][2]int
		ForEach(1, 10, func(lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
		return chunks
	}
	if a, b := record(), record(); !reflect.DeepEqual(a, b) {
		t.Fatalf("chunking unstable: %v vs %v", a, b)
	}
}

// TestParallelForEachWorkerMatchesForEach: ForEachWorker visits
// ForEach's chunks, numbered 0..Width-1 in index order, so each chunk
// can own one slot of a per-worker scratch table.
func TestParallelForEachWorkerMatchesForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 9, 10, 63, 64, 65, 1000} {
			var want [][2]int
			var mu sync.Mutex
			ForEach(workers, n, func(lo, hi int) {
				mu.Lock()
				want = append(want, [2]int{lo, hi})
				mu.Unlock()
			})
			sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })
			got := make([][2]int, Width(workers, n))
			ForEachWorker(workers, n, func(w, lo, hi int) {
				if w < 0 || w >= len(got) {
					t.Errorf("workers=%d n=%d: chunk ordinal %d outside width %d", workers, n, w, len(got))
					return
				}
				got[w] = [2]int{lo, hi}
			})
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d n=%d: ForEachWorker chunks %v, ForEach chunks %v", workers, n, got, want)
			}
		}
	}
}

func TestParallelBucketsPartition(t *testing.T) {
	keys := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, -7}
	for _, workers := range []int{1, 2, 3, 5, 16} {
		buckets := Buckets(workers, len(keys), func(i int) int { return keys[i] })
		seen := make(map[int]bool)
		keyBucket := make(map[int]int)
		for b, idx := range buckets {
			prev := -1
			for _, i := range idx {
				if seen[i] {
					t.Fatalf("workers=%d: index %d in two buckets", workers, i)
				}
				seen[i] = true
				if i <= prev {
					t.Fatalf("workers=%d: bucket %d not ascending: %v", workers, b, idx)
				}
				prev = i
				if kb, ok := keyBucket[keys[i]]; ok && kb != b {
					t.Fatalf("workers=%d: key %d split across buckets %d and %d", workers, keys[i], kb, b)
				}
				keyBucket[keys[i]] = b
			}
		}
		if len(seen) != len(keys) {
			t.Fatalf("workers=%d: %d of %d indices bucketed", workers, len(seen), len(keys))
		}
	}
}

func TestParallelRunBucketsOrderWithinBucket(t *testing.T) {
	keys := []int{0, 1, 0, 1, 0, 1, 0, 1}
	buckets := Buckets(2, len(keys), func(i int) int { return keys[i] })
	order := make([][]int, 2)
	RunBucketsWorker(buckets, func(_, i int) {
		order[keys[i]] = append(order[keys[i]], i) // same-key ⇒ same goroutine
	})
	if !reflect.DeepEqual(order[0], []int{0, 2, 4, 6}) || !reflect.DeepEqual(order[1], []int{1, 3, 5, 7}) {
		t.Fatalf("per-key order broken: %v", order)
	}
}

func TestParallelFirstErrorKeepsLowestIndex(t *testing.T) {
	var fe FirstError
	if fe.Err() != nil {
		t.Fatal("fresh FirstError not nil")
	}
	errs := make([]error, 10)
	for i := range errs {
		errs[i] = fmt.Errorf("err %d", i)
	}
	ForEach(4, 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%2 == 1 { // only odd indices fail
				fe.Report(i, errs[i])
			}
			fe.Report(i, nil) // nil reports are ignored
		}
	})
	if !errors.Is(fe.Err(), errs[1]) || fe.Index() != 1 {
		t.Fatalf("got %v at %d, want %v at 1", fe.Err(), fe.Index(), errs[1])
	}
}

func TestNormalize(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{0, 10, Workers()},
		{-3, 10, Workers()},
		{4, 2, 2},
		{4, 0, 1},
		{1, 100, 1},
	} {
		if tc.workers == 0 || tc.workers == -3 {
			if w := normalize(tc.workers, tc.n); w < 1 || w > tc.n {
				t.Fatalf("normalize(%d,%d) = %d out of range", tc.workers, tc.n, w)
			}
			continue
		}
		if got := normalize(tc.workers, tc.n); got != tc.want {
			t.Fatalf("normalize(%d,%d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}
