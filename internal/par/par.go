// Package par is the deterministic fan-out layer behind the parallel
// executor and the schedule builders. Every helper here is shaped
// around one rule: the partition of work depends only on the input
// sizes and keys, never on goroutine scheduling, so per-shard results
// can be reduced in shard order and the merged outcome is
// bit-identical to a serial left-to-right walk. internal/exec shards
// schedule steps, moves by sender and deliveries by node range;
// internal/baseline shards Direct's rounds.
package par

import (
	"runtime"
	"sync"
)

// Workers returns the default pool width: the process's GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// normalize resolves a requested worker count against n work items:
// zero or negative means Workers(), and the result is clamped to
// [1, n] so no shard is empty.
func normalize(workers, n int) int {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach partitions [0, n) into at most workers contiguous chunks and
// calls fn(lo, hi) once per chunk, concurrently, returning when every
// chunk has finished. fn must only touch state owned by its own index
// range. Chunk boundaries depend only on (n, workers), so per-chunk
// partial results can be reduced in chunk order deterministically.
// With one worker (or one chunk) fn runs inline on the caller's
// goroutine.
func ForEach(workers, n int, fn func(lo, hi int)) {
	ForEachWorker(workers, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForEachWorker is ForEach that also passes each chunk's ordinal w, in
// [0, Width(workers, n)), so chunks can index per-worker scratch
// without synchronization. The chunks are exactly ForEach's.
func ForEachWorker(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := chunkSize(workers, n)
	if chunk >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(lo/chunk, lo, hi)
	}
	wg.Wait()
}

// Width returns the number of chunks ForEach and ForEachWorker split
// [0, n) into for the given worker count (0 when n <= 0).
func Width(workers, n int) int {
	if n <= 0 {
		return 0
	}
	chunk := chunkSize(workers, n)
	return (n + chunk - 1) / chunk
}

// chunkSize is the length of every chunk but the last of ForEach's
// partition of [0, n), n > 0.
func chunkSize(workers, n int) int {
	workers = normalize(workers, n)
	return (n + workers - 1) / workers
}

// Buckets partitions the indices [0, n) into at most workers buckets
// by key(i) mod workers, preserving ascending index order inside each
// bucket. Indices with equal keys always land in the same bucket, so
// per-key sequential semantics survive the fan-out — e.g. every
// transfer sent by one node stays on one worker, in schedule order.
// Buckets may be empty; the partition depends only on (workers, n,
// keys).
func Buckets(workers, n int, key func(i int) int) [][]int {
	workers = normalize(workers, n)
	buckets := make([][]int, workers)
	for i := 0; i < n; i++ {
		k := key(i) % workers
		if k < 0 {
			k += workers
		}
		buckets[k] = append(buckets[k], i)
	}
	return buckets
}

// RunBucketsWorker runs fn(w, i) for every index i of every bucket w:
// buckets run concurrently with each other, indices within a bucket
// sequentially in slice order, and a single non-empty bucket runs
// inline. fn(w, i) runs on the goroutine owning bucket w, so w can
// index per-worker scratch arenas (e.g. the compiled executor's
// per-worker mark tables) without synchronization. Bucket indices are
// stable — they depend only on the partition, never on scheduling.
func RunBucketsWorker(buckets [][]int, fn func(worker, i int)) {
	nonEmpty := 0
	last := -1
	for b, idx := range buckets {
		if len(idx) > 0 {
			nonEmpty++
			last = b
		}
	}
	if nonEmpty == 0 {
		return
	}
	if nonEmpty == 1 {
		for _, i := range buckets[last] {
			fn(last, i)
		}
		return
	}
	var wg sync.WaitGroup
	for b, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(b int, idx []int) {
			defer wg.Done()
			for _, i := range idx {
				fn(b, i)
			}
		}(b, idx)
	}
	wg.Wait()
}

// FirstError collects errors reported from concurrent shards and keeps
// the one with the smallest index — the error a serial left-to-right
// walk would have hit first, independent of scheduling.
type FirstError struct {
	mu  sync.Mutex
	idx int
	err error
}

// Report records err as occurring at index idx; nil errors are
// ignored. Safe for concurrent use.
func (e *FirstError) Report(idx int, err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || idx < e.idx {
		e.idx, e.err = idx, err
	}
}

// Err returns the lowest-indexed reported error, or nil.
func (e *FirstError) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Index returns the index of the error returned by Err (undefined when
// Err is nil).
func (e *FirstError) Index() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.idx
}
