package model

// CSR is a compact slice-of-slices: row i is Data[Off[i]:Off[i+1]]. The
// whole structure is two allocations regardless of row count, rows are
// contiguous in memory (cache-linear iteration over consecutive rows),
// and rebuilding it in place costs no per-row allocation — the layout the
// solver hot path iterates millions of times per second. Rows share one
// backing array: callers must not append to a returned row.
type CSR struct {
	// Off has one entry per row plus a terminator: len(Off) = Rows()+1.
	Off []int32
	// Data holds the concatenated rows.
	Data []int32
}

// Rows returns the number of rows.
func (c *CSR) Rows() int {
	if len(c.Off) == 0 {
		return 0
	}
	return len(c.Off) - 1
}

// Row returns row i as a view into the shared backing array.
func (c *CSR) Row(i int32) []int32 {
	return c.Data[c.Off[i]:c.Off[i+1]]
}

// RowLen returns len(Row(i)) without materializing the slice header.
func (c *CSR) RowLen(i int32) int {
	return int(c.Off[i+1] - c.Off[i])
}

// BucketCSR distributes items 0..len(keys)-1 into numRows buckets,
// item i into row keys[i]-base; each row lists its items in ascending
// order. Two passes, three allocations.
func BucketCSR(numRows int, keys []int32, base int32) CSR {
	counts := make([]int32, numRows+1)
	for _, k := range keys {
		counts[k-base+1]++
	}
	for r := 0; r < numRows; r++ {
		counts[r+1] += counts[r]
	}
	c := CSR{Off: counts, Data: make([]int32, len(keys))}
	next := make([]int32, numRows)
	copy(next, c.Off[:numRows])
	for i, k := range keys {
		c.Data[next[k-base]] = int32(i)
		next[k-base]++
	}
	return c
}

// InvertCSR builds the transpose membership index of c: row v of the
// result lists, in ascending order, every row of c that contains value v.
// All values of c must lie in [0, numRows).
func InvertCSR(c *CSR, numRows int) CSR {
	counts := make([]int32, numRows+1)
	for _, v := range c.Data {
		counts[v+1]++
	}
	for r := 0; r < numRows; r++ {
		counts[r+1] += counts[r]
	}
	inv := CSR{Off: counts, Data: make([]int32, len(c.Data))}
	next := make([]int32, numRows)
	copy(next, inv.Off[:numRows])
	for i := 0; i < c.Rows(); i++ {
		for _, v := range c.Row(int32(i)) {
			inv.Data[next[v]] = int32(i)
			next[v]++
		}
	}
	return inv
}
