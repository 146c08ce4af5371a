package core

import "fmt"

// DefaultGridSize is the default Virtual-Grid dimension (10x10), matching
// the grid the paper's §5 experiments sweep around.
const DefaultGridSize = 10

// Resolution bundles the space/accuracy knobs of every technique artifact:
// how deep the interval catalogs go (MaxK), how many merged corner
// catalogs a staircase block keeps (Corners), how fine the virtual grid is
// (GridSize), and how many points an AkNN summary partition aggregates
// (AknnCapacity). One relation is built at one resolution; coarser
// resolutions cost fewer bytes and (boundedly) more q-error, which is the
// dial the store's space-budget tuner turns.
//
// The zero value means the repository-wide defaults at every axis,
// matching the zero-value conventions of engine.BuildOptions and
// store.Options.
type Resolution struct {
	// MaxK is the largest catalog-maintained k. Zero means DefaultMaxK.
	MaxK int
	// Corners is the number of merged corner catalogs a staircase block
	// retains: 1 (the paper's corners-catalog max-merge) is the default,
	// 4 keeps the per-quadrant set, and a negative value means none
	// (center-only artifacts). Zero means the default of 1.
	Corners int
	// GridSize is the Virtual-Grid dimension. Zero means DefaultGridSize.
	GridSize int
	// AknnCapacity is the minimum number of points an AkNN summary
	// partition aggregates; consecutive index blocks are coalesced until
	// a partition reaches it. Zero means one partition per block (the
	// finest summary).
	AknnCapacity int
}

// DefaultResolution returns the canonical repository-wide resolution.
func DefaultResolution() Resolution { return Resolution{}.Canon() }

// Canon maps a user-supplied resolution to its canonical form: zero axes
// become the defaults and negative Corners becomes -1 (center-only; 0 is
// reserved for "default", so -1 is the stable canonical spelling). Canon
// is idempotent, and two resolutions are interchangeable exactly when
// their Canon values are equal, so canonical resolutions serve as cache
// and artifact keys.
func (r Resolution) Canon() Resolution {
	if r.MaxK == 0 {
		r.MaxK = DefaultMaxK
	}
	switch {
	case r.Corners == 0:
		r.Corners = 1
	case r.Corners < 0:
		r.Corners = -1
	}
	if r.GridSize == 0 {
		r.GridSize = DefaultGridSize
	}
	if r.AknnCapacity < 0 {
		r.AknnCapacity = 0
	}
	return r
}

// Validate rejects resolutions no builder accepts.
func (r Resolution) Validate() error {
	r = r.Canon()
	if r.MaxK < 1 || r.MaxK > maxSaneK {
		return fmt.Errorf("core: invalid resolution MaxK %d", r.MaxK)
	}
	if r.Corners != -1 && r.Corners != 1 && r.Corners != 4 {
		return fmt.Errorf("core: invalid resolution Corners %d (want negative, 0, 1 or 4)", r.Corners)
	}
	if r.GridSize < 1 {
		return fmt.Errorf("core: invalid resolution GridSize %d", r.GridSize)
	}
	return nil
}

// StaircaseMode returns the staircase variant the Corners budget selects.
func (r Resolution) StaircaseMode() StaircaseMode {
	switch r.Canon().Corners {
	case -1:
		return ModeCenterOnly
	case 4:
		return ModeCenterQuadrant
	default:
		return ModeCenterCorners
	}
}

// Key returns a short stable string identifying the canonical resolution,
// for cache fingerprints and log lines.
func (r Resolution) Key() string {
	r = r.Canon()
	return fmt.Sprintf("k%d.c%d.g%d.a%d", r.MaxK, r.Corners, r.GridSize, r.AknnCapacity)
}

// Tuner ladder floors: shrinking stops at these so estimates never
// degenerate to a single catalog interval or a 1x1 grid.
const (
	minTunedMaxK     = 64
	minTunedGridSize = 2
	maxTunedCapacity = 4096
	minTunedCapacity = 64
)

// Coarser returns the next resolution down the space ladder: it first
// halves MaxK (floor 64), then halves GridSize (floor 2), then doubles
// AknnCapacity (from 64, cap 4096). Corners is never tuned — it changes
// which technique artifacts exist, not just their depth. At the floor of
// every axis Coarser returns r unchanged; callers detect exhaustion by
// comparing.
func (r Resolution) Coarser() Resolution {
	r = r.Canon()
	switch {
	case r.MaxK > minTunedMaxK:
		r.MaxK = max(minTunedMaxK, r.MaxK/2)
	case r.GridSize > minTunedGridSize:
		r.GridSize = max(minTunedGridSize, r.GridSize/2)
	case r.AknnCapacity == 0:
		r.AknnCapacity = minTunedCapacity
	case r.AknnCapacity < maxTunedCapacity:
		r.AknnCapacity = min(maxTunedCapacity, r.AknnCapacity*2)
	}
	return r
}

// CoarserN applies Coarser n times.
func (r Resolution) CoarserN(n int) Resolution {
	r = r.Canon()
	for i := 0; i < n; i++ {
		next := r.Coarser()
		if next == r {
			break
		}
		r = next
	}
	return r
}

// Artifact is implemented by every technique artifact: anything a
// relation builds, caches, persists and serves estimates from. It reports
// the resolution the artifact was built at and its size in the paper's
// storage metric, which is what the store's space-budget tuner accounts
// against -catalog-budget-bytes. Axes a particular artifact does not use
// (e.g. GridSize for a staircase) report the canonical defaults.
type Artifact interface {
	// Resolution returns the canonical resolution the artifact was built at.
	Resolution() Resolution
	// SizeBytes returns the artifact's size in the storage metric of the
	// paper's §5: the varint encoding of its catalogs
	// (catalog.StorageBytes), not the bytes it retains. A catalog interval
	// is ~2.4 bytes in the metric and 8 in the heap and in a cache file,
	// so an artifact holds roughly three times what this reports.
	SizeBytes() int
}

// cornersOfMode inverts Resolution.StaircaseMode.
func cornersOfMode(m StaircaseMode) int {
	switch m {
	case ModeCenterOnly:
		return -1
	case ModeCenterQuadrant:
		return 4
	default:
		return 1
	}
}

// Resolution implements Artifact. GridSize and AknnCapacity do not apply
// to a staircase and report the defaults.
func (s *Staircase) Resolution() Resolution {
	return Resolution{MaxK: s.maxK, Corners: cornersOfMode(s.mode)}.Canon()
}

// SizeBytes implements Artifact.
func (s *Staircase) SizeBytes() int { return s.StorageBytes() }

// Resolution implements Artifact. Only MaxK applies to a merged pair
// catalog; the other axes report the defaults.
func (c *CatalogMerge) Resolution() Resolution {
	return Resolution{MaxK: c.maxK}.Canon()
}

// SizeBytes implements Artifact.
func (c *CatalogMerge) SizeBytes() int { return c.StorageBytes() }

// Resolution implements Artifact. AknnCapacity does not apply to a
// virtual grid and reports the default.
func (v *VirtualGrid) Resolution() Resolution {
	return Resolution{MaxK: v.maxK, GridSize: v.nx}.Canon()
}

// SizeBytes implements Artifact.
func (v *VirtualGrid) SizeBytes() int { return v.StorageBytes() }

// Resolution implements Artifact. Density-based estimation keeps no
// catalogs, so no resolution axis applies; it reports the defaults.
func (d *DensityBased) Resolution() Resolution { return DefaultResolution() }

// SizeBytes implements Artifact. The density technique's only artifact is
// the Count-Index it walks: bounds plus a count per block.
func (d *DensityBased) SizeBytes() int {
	// 4 float64 bounds + 1 int count per block.
	return d.count.NumBlocks() * 40
}

var (
	_ Artifact = (*Staircase)(nil)
	_ Artifact = (*CatalogMerge)(nil)
	_ Artifact = (*VirtualGrid)(nil)
	_ Artifact = (*DensityBased)(nil)
)
