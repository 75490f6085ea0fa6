package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"resizecache/internal/geometry"
)

func g32k(assoc int) geometry.Geometry {
	return geometry.Geometry{SizeBytes: 32 << 10, Assoc: assoc, BlockBytes: 32, SubarrayBytes: 1 << 10}
}

func TestTable1HybridScheduleExact(t *testing.T) {
	// Paper Table 1: 32K 4-way, 1K subarray hybrid offers exactly
	// 32K, 24K, 16K, 12K, 8K, 6K, 4K, 3K, 2K, 1K — with redundant sizes
	// resolved to the highest set-associativity.
	sched, err := BuildSchedule(g32k(4), Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kb   int
		ways int
	}{
		{32, 4}, {24, 3}, {16, 4}, {12, 3}, {8, 4}, {6, 3}, {4, 4}, {3, 3}, {2, 2}, {1, 1},
	}
	if len(sched.Points) != len(want) {
		t.Fatalf("got %d points %v, want %d", len(sched.Points), sched.Points, len(want))
	}
	for i, w := range want {
		p := sched.Points[i]
		if p.Bytes != w.kb<<10 || p.Ways != w.ways {
			t.Errorf("point %d = %v, want %dK/%d-way", i, p, w.kb, w.ways)
		}
	}
}

func TestSelectiveWaysSchedule(t *testing.T) {
	// Paper: a 32K 4-way selective-ways cache offers 32K, 24K, 16K, 8K.
	sched, err := BuildSchedule(g32k(4), SelectiveWays)
	if err != nil {
		t.Fatal(err)
	}
	wantKB := []int{32, 24, 16, 8}
	if len(sched.Points) != len(wantKB) {
		t.Fatalf("points = %v", sched.Points)
	}
	for i, kb := range wantKB {
		if sched.Points[i].Bytes != kb<<10 {
			t.Errorf("point %d = %v, want %dK", i, sched.Points[i], kb)
		}
		if sched.Points[i].Sets != sched.Geom.Sets() {
			t.Errorf("selective-ways must not change sets")
		}
	}
	if sched.NeedsProvisionedTag() {
		t.Error("selective-ways must not need a provisioned tag array")
	}
}

func TestSelectiveSetsSchedule(t *testing.T) {
	// Paper: a 32K 4-way selective-sets cache offers 32K, 16K, 8K, 4K
	// (minimum one 1K subarray per way => 32 sets => 4K total).
	sched, err := BuildSchedule(g32k(4), SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	wantKB := []int{32, 16, 8, 4}
	if len(sched.Points) != len(wantKB) {
		t.Fatalf("points = %v", sched.Points)
	}
	for i, kb := range wantKB {
		p := sched.Points[i]
		if p.Bytes != kb<<10 {
			t.Errorf("point %d = %v, want %dK", i, p, kb)
		}
		if p.Ways != 4 {
			t.Errorf("selective-sets must maintain set-associativity, got %d ways", p.Ways)
		}
	}
	if !sched.NeedsProvisionedTag() {
		t.Error("selective-sets needs a provisioned tag array")
	}
	if sched.MinSets() != 32 {
		t.Errorf("MinSets = %d, want 32", sched.MinSets())
	}
}

func TestSelectiveSets2WayGranularityGap(t *testing.T) {
	// Paper §4.1: selective-sets on 2-way offers nothing between 32K and
	// 16K, whereas selective-ways on 16-way offers 2K granularity
	// throughout. Verify both schedule shapes.
	sets2, err := BuildSchedule(g32k(2), SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	if sets2.Points[1].Bytes != 16<<10 {
		t.Fatalf("second point %v, want 16K", sets2.Points[1])
	}
	ways16, err := BuildSchedule(g32k(16), SelectiveWays)
	if err != nil {
		t.Fatal(err)
	}
	if len(ways16.Points) != 16 {
		t.Fatalf("16-way schedule has %d points", len(ways16.Points))
	}
	for i := 1; i < len(ways16.Points); i++ {
		if ways16.Points[i-1].Bytes-ways16.Points[i].Bytes != 2<<10 {
			t.Fatalf("16-way granularity not 2K at %d", i)
		}
	}
}

func TestNonResizableSchedule(t *testing.T) {
	sched, err := BuildSchedule(g32k(2), NonResizable)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Points) != 1 || sched.Points[0].Bytes != 32<<10 {
		t.Fatalf("points = %v", sched.Points)
	}
}

func TestBuildScheduleRejectsBadOrgAndGeometry(t *testing.T) {
	if _, err := BuildSchedule(g32k(2), Organization(99)); err == nil {
		t.Fatal("unknown organization accepted")
	}
	bad := g32k(2)
	bad.BlockBytes = 33
	if _, err := BuildSchedule(bad, SelectiveSets); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// TestValidateScheduleMatchesBuild: ValidateSchedule fails exactly
// where BuildSchedule does, with the same error, so callers that skip
// building a schedule keep rejecting everything a build would.
func TestValidateScheduleMatchesBuild(t *testing.T) {
	checked, rejected := 0, 0
	for _, size := range []int{0, 3 << 10, 32 << 10, 512 << 10} {
		for assoc := -1; assoc <= 40; assoc++ {
			for _, block := range []int{0, 16, 32, 33, 64} {
				for _, sub := range []int{0, 512, 1 << 10, 4 << 10, 3000} {
					g := geometry.Geometry{SizeBytes: size, Assoc: assoc, BlockBytes: block, SubarrayBytes: sub}
					for org := Organization(-1); org <= HybridMinWays+1; org++ {
						_, berr := BuildSchedule(g, org)
						verr := ValidateSchedule(g, org)
						if fmt.Sprint(berr) != fmt.Sprint(verr) {
							t.Fatalf("%+v %v: BuildSchedule error %v, ValidateSchedule error %v", g, org, berr, verr)
						}
						checked++
						if verr != nil {
							rejected++
						}
					}
				}
			}
		}
	}
	if rejected == 0 || rejected == checked {
		t.Fatalf("%d of %d cases rejected: the grid does not exercise both outcomes", rejected, checked)
	}
}

func TestIndexAtOrBelow(t *testing.T) {
	sched, _ := BuildSchedule(g32k(4), Hybrid)
	if i := sched.IndexAtOrBelow(13 << 10); sched.Points[i].Bytes != 12<<10 {
		t.Errorf("IndexAtOrBelow(13K) -> %v", sched.Points[i])
	}
	if i := sched.IndexAtOrBelow(32 << 10); i != 0 {
		t.Errorf("IndexAtOrBelow(32K) = %d", i)
	}
	if i := sched.IndexAtOrBelow(512); i != 0 {
		t.Errorf("IndexAtOrBelow(512) = %d, want 0 fallback", i)
	}
}

func TestOrganizationString(t *testing.T) {
	cases := map[Organization]string{
		NonResizable: "non-resizable", SelectiveWays: "selective-ways",
		SelectiveSets: "selective-sets", Hybrid: "hybrid", Organization(42): "Organization(42)",
	}
	for org, want := range cases {
		if org.String() != want {
			t.Errorf("%d.String() = %q", int(org), org.String())
		}
	}
}

// Property: for any valid geometry, the hybrid schedule is a superset of
// both selective-ways and selective-sets size spectra, strictly sorted
// descending, and every point's Bytes equals Sets*Ways*Block.
func TestHybridSupersetProperty(t *testing.T) {
	f := func(sizeExp, assocExp uint8) bool {
		se := 13 + int(sizeExp%4) // 8K..64K
		assoc := 1 << (assocExp % 5)
		g := geometry.Geometry{SizeBytes: 1 << se, Assoc: assoc, BlockBytes: 32, SubarrayBytes: 1 << 10}
		if g.Validate() != nil {
			return true
		}
		hy, err1 := BuildSchedule(g, Hybrid)
		sw, err2 := BuildSchedule(g, SelectiveWays)
		ss, err3 := BuildSchedule(g, SelectiveSets)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		sizes := map[int]bool{}
		for i, p := range hy.Points {
			if p.Bytes != p.Sets*p.Ways*g.BlockBytes {
				return false
			}
			if i > 0 && hy.Points[i-1].Bytes <= p.Bytes {
				return false
			}
			sizes[p.Bytes] = true
		}
		for _, p := range sw.Points {
			if !sizes[p.Bytes] {
				return false
			}
		}
		for _, p := range ss.Points {
			if !sizes[p.Bytes] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
