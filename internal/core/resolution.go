package core

import "fmt"

// DefaultGridSize is the default Virtual-Grid dimension (10x10), matching
// the grid the paper's §5 experiments sweep around.
const DefaultGridSize = 10

// Resolution bundles the space/accuracy knobs of every technique artifact:
// how deep the interval catalogs go (MaxK), how many merged corner
// catalogs a staircase block keeps (Corners), how fine the virtual grid is
// (GridSize), and how many points an AkNN summary partition aggregates
// (AknnCapacity). One relation is built at one resolution, the one its
// registration declares: coarser resolutions cost fewer bytes and
// (boundedly) more q-error, a choice made once, when the artifacts are built.
//
// The zero value means the repository-wide defaults at every axis, the
// zero-value convention store.Options follows too; engine.BuildOptions
// carries one.
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

// Resolution returns the canonical resolution the staircase was built at.
// GridSize and AknnCapacity do not apply to a staircase and report the
// defaults.
func (s *Staircase) Resolution() Resolution {
	return Resolution{MaxK: s.maxK, Corners: cornersOfMode(s.mode)}.Canon()
}

// Resolution returns the canonical resolution the virtual grid was built
// at. AknnCapacity does not apply to a virtual grid and reports the
// default.
func (v *VirtualGrid) Resolution() Resolution {
	return Resolution{MaxK: v.maxK, GridSize: v.nx}.Canon()
}
