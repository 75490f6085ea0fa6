// Package core implements the paper's primary contribution: the design
// space of resizable caches. It provides the three resizing
// organizations — selective-ways, selective-sets, and the proposed hybrid
// selective-sets-and-ways — as offered-size schedules over a cache
// geometry, a ResizableCache that applies resizes with the correct flush
// semantics and energy accounting, and the two resizing strategies
// (static, and the miss-ratio-based dynamic controller with miss-bound
// and size-bound parameters).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"resizecache/internal/geometry"
)

// Organization selects a resizable cache organization.
type Organization int

const (
	// NonResizable is the conventional fixed cache (the baseline).
	NonResizable Organization = iota
	// SelectiveWays enables/disables individual associative ways
	// (Albonesi, MICRO-32).
	SelectiveWays
	// SelectiveSets enables/disables cache sets by masking index bits
	// (Yang et al., HPCA-7).
	SelectiveSets
	// Hybrid combines both, offering the union of their size spectra
	// (this paper's proposal). Redundant sizes resolve to the highest
	// set-associativity, per Table 1.
	Hybrid
	// HybridMinWays is the ablation variant of Hybrid: redundant sizes
	// resolve to the FEWEST ways (cheapest per-access read energy)
	// instead of the highest associativity (lowest miss ratio). Used to
	// quantify the cost of Table 1's tie-break rule.
	HybridMinWays
)

func (o Organization) String() string {
	switch o {
	case NonResizable:
		return "non-resizable"
	case SelectiveWays:
		return "selective-ways"
	case SelectiveSets:
		return "selective-sets"
	case Hybrid:
		return "hybrid"
	case HybridMinWays:
		return "hybrid-min-ways"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// SizePoint is one configuration offered by an organization: an enabled
// capacity realized as Sets × Ways × blockBytes.
type SizePoint struct {
	Bytes int
	Sets  int
	Ways  int
}

func (p SizePoint) String() string {
	return fmt.Sprintf("%s/%d-way", geometry.FormatSize(p.Bytes), p.Ways)
}

// Schedule is the ordered list of configurations an organization offers
// for a geometry, largest first. Index 0 is always the full-size
// configuration.
type Schedule struct {
	Org    Organization
	Geom   geometry.Geometry
	Points []SizePoint
}

// MinSets returns the fewest sets appearing anywhere in the schedule
// (the value the tag array must be provisioned for when sets can shrink).
func (s Schedule) MinSets() int {
	min := s.Geom.Sets()
	for _, p := range s.Points {
		if p.Sets < min {
			min = p.Sets
		}
	}
	return min
}

// MinBytes returns the smallest offered capacity.
func (s Schedule) MinBytes() int {
	min := s.Points[0].Bytes
	for _, p := range s.Points {
		if p.Bytes < min {
			min = p.Bytes
		}
	}
	return min
}

// IndexAtOrBelow returns the index of the largest offered point with
// Bytes <= limit, or 0 if none (the full size).
func (s Schedule) IndexAtOrBelow(limit int) int {
	for i, p := range s.Points {
		if p.Bytes <= limit {
			return i
		}
	}
	return 0
}

// NeedsProvisionedTag reports whether this schedule ever reduces the set
// count, forcing a tag array provisioned for the minimum size.
func (s Schedule) NeedsProvisionedTag() bool { return s.MinSets() < s.Geom.Sets() }

// BuildSchedule enumerates the configurations offered by org over g.
//
// Enable/disable granularity is one subarray per way, so the minimum set
// count is one subarray's worth of blocks (paper §2.1). For the hybrid
// organization, every (setCount, wayCount) combination is enumerated and
// redundant sizes resolve to the highest set-associativity (Table 1's
// shaded entries), which reproduces Table 1 exactly: sizes from 32K down
// to 3K alternate 4-way/3-way, and only below 3K does associativity drop
// further.
func BuildSchedule(g geometry.Geometry, org Organization) (Schedule, error) {
	if err := g.Validate(); err != nil {
		return Schedule{}, err
	}
	maxSets := g.Sets()
	minSets := g.SubarrayBytes / g.BlockBytes // one subarray per way
	if minSets < 1 {
		minSets = 1
	}
	block := g.BlockBytes
	// One allocation: every organization offers at most one point per
	// (set count, way count) pair.
	setCounts := 0
	for s := maxSets; s >= minSets; s >>= 1 {
		setCounts++
	}
	pts := make([]SizePoint, 0, max(setCounts, 1)*g.Assoc)
	add := func(sets, ways int) {
		pts = append(pts, SizePoint{Bytes: sets * ways * block, Sets: sets, Ways: ways})
	}

	switch org {
	case NonResizable:
		add(maxSets, g.Assoc)
	case SelectiveWays:
		for w := g.Assoc; w >= 1; w-- {
			add(maxSets, w)
		}
	case SelectiveSets:
		for s := maxSets; s >= minSets; s >>= 1 {
			add(s, g.Assoc)
		}
	case Hybrid, HybridMinWays:
		for s := maxSets; s >= minSets; s >>= 1 {
			for w := g.Assoc; w >= 1; w-- {
				add(s, w)
			}
		}
		// Largest size first; among equal sizes the preferred
		// associativity first, so compacting keeps it.
		preferMoreWays := org == Hybrid
		slices.SortFunc(pts, func(a, b SizePoint) int {
			if a.Bytes != b.Bytes {
				return cmp.Compare(b.Bytes, a.Bytes)
			}
			if preferMoreWays {
				return cmp.Compare(b.Ways, a.Ways)
			}
			return cmp.Compare(a.Ways, b.Ways)
		})
		pts = slices.CompactFunc(pts, func(a, b SizePoint) bool { return a.Bytes == b.Bytes })
	default:
		return Schedule{}, fmt.Errorf("core: unknown organization %d", int(org))
	}

	if pts[0].Bytes != g.SizeBytes {
		return Schedule{}, fmt.Errorf("core: schedule for %v does not start at full size", org)
	}
	return Schedule{Org: org, Geom: g, Points: pts}, nil
}
