package catalog

import "testing"

// Lookup sits at the bottom of every estimate the service answers; it must
// not allocate (the binary search is hand-rolled so no function value
// escapes).
func TestLookupZeroAlloc(t *testing.T) {
	c := &Catalog{}
	costs := []int{1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	start := 1
	for i, cost := range costs {
		end := start + i
		if err := c.Append(start, end, cost); err != nil {
			t.Fatal(err)
		}
		start = end + 1
	}
	maxK := c.MaxK()
	if allocs := testing.AllocsPerRun(200, func() {
		for k := 1; k <= maxK; k++ {
			if _, ok := c.Lookup(k); !ok {
				t.Fatalf("Lookup(%d) missed", k)
			}
		}
	}); allocs != 0 {
		t.Errorf("Lookup allocates %.1f times per sweep, want 0", allocs)
	}
}

// Reset is the scratch-catalog reuse primitive: it keeps capacity, and a
// reused catalog behaves like a fresh one. Clone is how the contents leave
// the scratch: exact-size, sharing nothing.
func TestResetReuse(t *testing.T) {
	c := &Catalog{}
	if err := c.Append(1, 10, 3); err != nil {
		t.Fatal(err)
	}
	kept := c.Clone()
	c.Reset()
	if cost, ok := kept.Lookup(10); !ok || cost != 3 || cap(kept.entries) != 1 {
		t.Fatalf("clone after the scratch was reset: Lookup(10) = (%d, %v), capacity %d", cost, ok, cap(kept.entries))
	}
	if c.Len() != 0 || c.MaxK() != 0 {
		t.Fatalf("after Reset: Len=%d MaxK=%d", c.Len(), c.MaxK())
	}
	// A reset catalog must accept a fresh contiguous build from k=1.
	if err := c.Append(1, 4, 7); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	if cost, ok := c.Lookup(2); !ok || cost != 7 {
		t.Fatalf("Lookup(2) = (%d, %v) after reuse", cost, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		if err := c.Append(1, 4, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Reset+Append reuse allocates %.1f times, want 0", allocs)
	}
}
