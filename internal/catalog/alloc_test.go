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

// TestSlabKeepsEachCatalog: catalogs built one after another on a slab keep
// their own intervals whatever is built after them, one that outgrows the
// slab is kept where its appends moved it, an Append to a closed catalog
// copies rather than writing over the next, and once the slab has room a
// catalog allocates nothing.
func TestSlabKeepsEachCatalog(t *testing.T) {
	var s Slab
	build := func(n int) Catalog {
		c := s.Open()
		for i := 1; i <= n; i++ {
			if err := c.Append(i, i, i); err != nil {
				t.Fatal(err)
			}
		}
		return s.Close(c)
	}
	var kept []Catalog
	for n := 1; n <= 40; n++ {
		kept = append(kept, build(n%7+1))
	}
	grown := kept[3]
	if err := grown.Append(grown.MaxK()+1, grown.MaxK()+1, 99); err != nil {
		t.Fatal(err)
	}
	for i, c := range kept {
		n := (i+1)%7 + 1
		if c.Len() != n {
			t.Fatalf("catalog %d holds %d intervals, want %d", i, c.Len(), n)
		}
		for k := 1; k <= n; k++ {
			if cost, ok := c.Lookup(k); !ok || cost != k {
				t.Fatalf("catalog %d: Lookup(%d) = (%d, %v), want %d", i, k, cost, ok, k)
			}
		}
	}
	s.Reset()
	build(7) // room for the next ones now
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		build(7)
	}); allocs != 0 {
		t.Errorf("a catalog built on a slab with room allocates %.1f times, want 0", allocs)
	}
}
