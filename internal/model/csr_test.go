package model

import (
	"reflect"
	"testing"
)

// NewCSR flattens rows into a CSR (two allocations, rows copied in
// order).
func NewCSR(rows [][]int32) CSR {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	c := CSR{
		Off:  make([]int32, len(rows)+1),
		Data: make([]int32, 0, total),
	}
	for i, r := range rows {
		c.Data = append(c.Data, r...)
		c.Off[i+1] = int32(len(c.Data))
	}
	return c
}

func TestNewCSRRoundTrip(t *testing.T) {
	rows := [][]int32{{3, 1}, {}, {2}, {5, 5, 0}}
	c := NewCSR(rows)
	if c.Rows() != len(rows) {
		t.Fatalf("rows %d want %d", c.Rows(), len(rows))
	}
	for i, want := range rows {
		got := c.Row(int32(i))
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("row %d = %v want %v", i, got, want)
		}
		if c.RowLen(int32(i)) != len(want) {
			t.Fatalf("rowlen %d = %d want %d", i, c.RowLen(int32(i)), len(want))
		}
	}
	var empty CSR
	if empty.Rows() != 0 {
		t.Fatalf("zero CSR has %d rows", empty.Rows())
	}
}

func TestBucketCSRPreservesOrder(t *testing.T) {
	// Items 0..5 into buckets by parity: evens to 0, odds to 1.
	c := BucketCSR(2, []int32{0, 1, 0, 1, 0, 1}, 0)
	if got := c.Row(0); !reflect.DeepEqual(got, []int32{0, 2, 4}) {
		t.Fatalf("bucket 0 = %v", got)
	}
	if got := c.Row(1); !reflect.DeepEqual(got, []int32{1, 3, 5}) {
		t.Fatalf("bucket 1 = %v", got)
	}
}

func TestInvertCSRIsTranspose(t *testing.T) {
	c := NewCSR([][]int32{{0, 2}, {2}, {1, 0}})
	inv := InvertCSR(&c, 3)
	want := [][]int32{{0, 2}, {2}, {0, 1}}
	for v, w := range want {
		if got := inv.Row(int32(v)); !reflect.DeepEqual(got, w) {
			t.Fatalf("inv row %d = %v want %v", v, got, w)
		}
	}
	// Membership must be exactly inverted.
	total := 0
	for i := 0; i < c.Rows(); i++ {
		total += c.RowLen(int32(i))
	}
	if len(inv.Data) != total {
		t.Fatalf("inverse has %d entries, want %d", len(inv.Data), total)
	}
}
