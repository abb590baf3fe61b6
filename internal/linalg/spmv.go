package linalg

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// spmvMinNNZ is the nonzero count below which parallel SpMV is never worth
// the goroutine fan-out and MulVecTo stays serial. The measured crossover
// (BENCH_backends.json) sits well above the old 2¹⁴ guess: at ~180k
// nonzeros the fork/join overhead still cancels the gain, so the auto path
// only fans out when every shard carries a meaningful slice of work.
const spmvMinNNZ = 1 << 15

// spmvShardNNZ is the minimum number of nonzeros per shard: the shard
// count is capped so no goroutine receives less than this much work. It is
// spmvMinNNZ/2 exactly so that the threshold above is the real serial/
// parallel boundary — any nnz ≥ spmvMinNNZ admits at least two shards.
const spmvShardNNZ = spmvMinNNZ / 2

// spmvShards returns the shard count MulVecTo uses for this matrix: one
// (serial) below the nnz threshold or on a single-CPU host, otherwise the
// largest count ≤ NumCPU for which every shard still owns ≥ spmvShardNNZ
// nonzeros.
func (m *CSR) spmvShards() int {
	nnz := len(m.vals)
	if nnz < spmvMinNNZ {
		return 1
	}
	shards := runtime.NumCPU()
	if byWork := nnz / spmvShardNNZ; shards > byWork {
		shards = byWork
	}
	if shards > m.rows {
		shards = m.rows
	}
	if shards < 2 {
		return 1
	}
	return shards
}

// AutoShards reports the shard count MulVecTo's heuristic picks for this
// matrix (1 = serial) — exported so benchmarks and the committed snapshot
// gate can tell a genuine parallel win from an auto fallback to serial.
func (m *CSR) AutoShards() int { return m.spmvShards() }

// mulVecRange computes dst[r0:r1] = (m·x)[r0:r1]. Each row is accumulated in
// the same order as the serial product, so any row partition yields
// bit-for-bit identical results.
func (m *CSR) mulVecRange(dst, x []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		var s float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[r] = s
	}
}

// MulVecTo computes dst = m·x without allocating. Matrices above the nnz
// threshold are sharded into row blocks of balanced nonzero count; rows are
// summed in serial order inside each block, so the output is bit-for-bit
// identical to the serial product regardless of the shard count.
func (m *CSR) MulVecTo(dst, x []float64) {
	checkApply(m.rows, m.cols, dst, x)
	m.MulVecToShards(dst, x, m.spmvShards())
}

// MulVecToShards is MulVecTo with an explicit shard count (exported so tests
// and benchmarks can pin serial vs parallel execution). shards ≤ 1 runs
// serially. Shard boundaries balance *nonzeros*, not row counts: rowPtr is
// already the nnz prefix sum, so shard i owns the rows holding nonzeros
// [i·nnz/shards, (i+1)·nnz/shards) — a skewed row-length distribution (one
// dense hub row plus thousands of short ones) no longer serializes on the
// shard that drew the hub.
func (m *CSR) MulVecToShards(dst, x []float64, shards int) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("linalg: CSR MulVecToShards got dst=%d x=%d, want dst=%d x=%d", len(dst), len(x), m.rows, m.cols))
	}
	if shards > m.rows {
		shards = m.rows
	}
	if shards <= 1 {
		m.mulVecRange(dst, x, 0, m.rows)
		return
	}
	// Disjoint dst segments mean no synchronization beyond the WaitGroup.
	var wg sync.WaitGroup
	nnz := len(m.vals)
	r0 := 0
	for i := 0; i < shards; i++ {
		r1 := m.rows
		if i+1 < shards {
			// First row whose prefix reaches the next nnz quantile; never
			// before r0, so every shard gets a well-formed (possibly empty)
			// row range and all rows are covered exactly once.
			target := (i + 1) * nnz / shards
			r1 = sort.SearchInts(m.rowPtr, target)
			if r1 < r0 {
				r1 = r0
			}
			if r1 > m.rows {
				r1 = m.rows
			}
		}
		if r1 > r0 {
			wg.Add(1)
			go func(a, b int) {
				defer wg.Done()
				m.mulVecRange(dst, x, a, b)
			}(r0, r1)
		}
		r0 = r1
	}
	wg.Wait()
}

// GramDiagTo writes diag(mᵀ·diag(d)·m) into dst (length Cols) in O(nnz) —
// the Jacobi preconditioner of the csr-cg normal-equation backend.
func (m *CSR) GramDiagTo(dst, d []float64) {
	if len(d) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: CSR GramDiagTo got dst=%d d=%d, want dst=%d d=%d", len(dst), len(d), m.cols, m.rows))
	}
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.rows; r++ {
		dr := d[r]
		if dr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			v := m.vals[k]
			dst[m.colIdx[k]] += dr * v * v
		}
	}
}

// MulVecTTo computes dst = mᵀ·x without allocating. The column scatter is
// serial: parallelizing it would race on dst (or require per-shard copies),
// and the transpose product is never the bottleneck in this codebase.
func (m *CSR) MulVecTTo(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: CSR MulVecTTo got dst=%d x=%d, want dst=%d x=%d", len(dst), len(x), m.cols, m.rows))
	}
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			dst[m.colIdx[k]] += m.vals[k] * xr
		}
	}
}
