package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// slotIndex builds the slot table of a sorted, duplicate-free row the way
// protoEngine.init does, sized for n ≥ len(row) path edges.
func slotIndex(row []int32, n int) *nodeState {
	size, shift := tableSize(n)
	ns := &nodeState{edges: row, table: make([]int32, size), shift: shift}
	ns.index()
	return ns
}

// TestSlotMatchesBinarySearch checks nodeState.slot against a
// slices.BinarySearch oracle on random sorted rows: empty and one-edge
// rows, dense and sparse ids, rows of more than 2^16 edges and ids near
// MaxInt32, with the table sized for the row itself and for a row with
// duplicates. Every present id must hit its slot, and absent ids between
// the row's ids, below it and above it must miss.
func TestSlotMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, row []int32, probes []int32) {
		t.Helper()
		for _, n := range []int{len(row), 3*len(row) + 1} {
			ns := slotIndex(row, n)
			if len(ns.table) < 2*len(row) || len(ns.table)&(len(ns.table)-1) != 0 {
				t.Fatalf("%s: table of %d entries for %d edges", name, len(ns.table), len(row))
			}
			for _, e := range slices.Concat(row, probes) {
				want, wantOK := slices.BinarySearch(row, e)
				got, ok := ns.slot(e)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("%s (table for %d): slot(%d) = %d, %v; binary search says %d, %v",
						name, n, e, got, ok, want, wantOK)
				}
			}
		}
	}
	// absent returns ids not in row: one in every gap, the neighbours of
	// both ends, both ends of the int32 range and random draws.
	absent := func(row []int32) []int32 {
		out := []int32{0, math.MaxInt32, math.MaxInt32 - 1}
		for x := 1; x < len(row); x++ {
			if row[x]-row[x-1] > 1 {
				out = append(out, row[x-1]+1+rng.Int31n(row[x]-row[x-1]-1))
			}
		}
		if len(row) > 0 {
			if row[0] > 0 {
				out = append(out, row[0]-1)
			}
			if row[len(row)-1] < math.MaxInt32 {
				out = append(out, row[len(row)-1]+1)
			}
		}
		for range 64 {
			out = append(out, rng.Int31())
		}
		return out
	}
	// sparse returns r distinct sorted ids below hi, which must be ≥ 2r.
	sparse := func(r int, hi int32) []int32 {
		row := make([]int32, 0, r)
		for len(row) < r {
			row = append(row, rng.Int31n(hi))
			if len(row) == r {
				slices.Sort(row)
				row = slices.Compact(row)
			}
		}
		return row
	}
	dense := func(r int, lo int32) []int32 {
		row := make([]int32, r)
		for x := range row {
			row[x] = lo + int32(x)
		}
		return row
	}

	check("empty", nil, absent(nil))
	check("one edge", []int32{7}, absent([]int32{7}))
	check("one edge at 0", []int32{0}, absent([]int32{0}))
	check("one edge at MaxInt32", []int32{math.MaxInt32}, absent([]int32{math.MaxInt32}))
	for trial := range 200 {
		r := 1 + rng.Intn(300)
		row := sparse(r, int32(2*r+rng.Intn(4*r+1)))
		check("sparse", row, absent(row))
		row = dense(r, rng.Int31n(1<<20))
		check("dense", row, absent(row))
		if trial%20 == 0 {
			row = dense(r, math.MaxInt32-int32(r)+1)
			check("dense ending at MaxInt32", row, absent(row))
			row = sparse(r, math.MaxInt32)
			check("sparse over int32", row, absent(row))
		}
	}
	big := 1<<16 + 1 + rng.Intn(1<<14)
	row := dense(big, 12345)
	check("dense > 2^16", row, absent(row))
	row = sparse(big, 1<<24)
	check("sparse > 2^16", row, absent(row))
	row = dense(big, math.MaxInt32-int32(big)+1)
	check("> 2^16 ending at MaxInt32", row, absent(row))
}
