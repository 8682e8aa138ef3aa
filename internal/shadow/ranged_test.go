package shadow_test

import (
	"math/rand"
	"testing"

	"tquad/internal/shadow"
)

// mapOwners is the naive map[addr]owner last-writer table: the reference
// the paged Owners is checked against and the baseline of the paged-vs-map
// ablation benchmark.
type mapOwners struct {
	m map[uint64]uint16
}

func newMapOwners() *mapOwners { return &mapOwners{m: make(map[uint64]uint16)} }

func (o *mapOwners) SetRange(addr uint64, size int, owner uint16) {
	for i := 0; i < size; i++ {
		o.m[addr+uint64(i)] = owner
	}
}

func (o *mapOwners) Owner(addr uint64) uint16 { return o.m[addr] }

// countBytewise is the per-byte oracle for Owners.Count.
func countBytewise(o *mapOwners, addr uint64, size int, counts []uint64) {
	for i := 0; i < size; i++ {
		counts[o.Owner(addr+uint64(i))]++
	}
}

func equalCounts(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRangedOpsAgainstBytewiseOracle drives SetRange, Count and AddRange
// with 1..16-byte accesses at arbitrary offsets across four pages (so the
// memo keeps switching and a share of the accesses straddle a boundary)
// and compares every result with the per-byte map oracle.
func TestRangedOpsAgainstBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const owners = 9
	paged, ref := shadow.NewOwners(), newMapOwners()
	set, refSet := shadow.NewAddrSet(), make(map[uint64]bool)
	base := uint64(7 * shadow.PageSize)
	got, want := make([]uint64, owners), make([]uint64, owners)
	for i := 0; i < 40000; i++ {
		addr := base + uint64(rng.Intn(4*shadow.PageSize))
		if rng.Intn(8) == 0 {
			// Aim at a boundary.
			addr = base + uint64(rng.Intn(4)+1)*shadow.PageSize - uint64(rng.Intn(9))
		}
		size := rng.Intn(16) + 1
		switch rng.Intn(3) {
		case 0:
			owner := uint16(rng.Intn(owners))
			paged.SetRange(addr, size, owner)
			ref.SetRange(addr, size, owner)
		case 1:
			paged.Count(addr, size, got)
			countBytewise(ref, addr, size, want)
			if !equalCounts(got, want) {
				t.Fatalf("op %d Count(%#x, %d): got %v, want %v", i, addr, size, got, want)
			}
		case 2:
			set.AddRange(addr, size)
			for j := 0; j < size; j++ {
				refSet[addr+uint64(j)] = true
			}
			if set.Count() != uint64(len(refSet)) {
				t.Fatalf("op %d AddRange(%#x, %d): count %d, want %d", i, addr, size, set.Count(), len(refSet))
			}
		}
	}
	for a := base - 8; a < base+4*shadow.PageSize+8; a++ {
		if paged.Owner(a) != ref.Owner(a) {
			t.Fatalf("addr %#x: owner %d, want %d", a, paged.Owner(a), ref.Owner(a))
		}
		if set.Contains(a) != refSet[a] {
			t.Fatalf("addr %#x: Contains = %v, want %v", a, set.Contains(a), refSet[a])
		}
	}
}

// TestRangedStraddlingAccess: a size-8 access at offset PageSize-3 splits
// 3/5 across two pages for every ranged operation.
func TestRangedStraddlingAccess(t *testing.T) {
	const addr = 5*shadow.PageSize - 3
	o := shadow.NewOwners()
	o.SetRange(addr-5, 8, 2) // bytes up to the boundary
	o.SetRange(addr, 8, 1)
	if o.PageCount() != 2 {
		t.Fatalf("straddling write materialised %d pages, want 2", o.PageCount())
	}
	counts := make([]uint64, 3)
	o.Count(addr-5, 16, counts)
	if want := []uint64{3, 8, 5}; !equalCounts(counts, want) {
		t.Fatalf("Count = %v, want %v", counts, want)
	}
	s := shadow.NewAddrSet()
	s.AddRange(addr, 8)
	s.AddRange(addr+4, 8) // overlaps the second page's first 4 bytes
	if s.Count() != 12 {
		t.Fatalf("AddrSet count = %d, want 12", s.Count())
	}
	for a := uint64(addr); a < addr+12; a++ {
		if !s.Contains(a) {
			t.Fatalf("Contains(%#x) = false", a)
		}
	}
	if s.Contains(addr-1) || s.Contains(addr+12) {
		t.Fatalf("AddrSet spilled outside the range")
	}
}

// TestCountMissingPage: a Count over a page never written charges every
// byte to NoOwner and materialises nothing, straddling or not.
func TestCountMissingPage(t *testing.T) {
	o := shadow.NewOwners()
	o.SetRange(0x2000-3, 3, 4)
	counts := make([]uint64, 5)
	o.Count(0x9000+16, 8, counts)
	o.Count(0xa000-3, 8, counts)
	if counts[shadow.NoOwner] != 16 || counts[4] != 0 {
		t.Fatalf("counts = %v, want 16 under NoOwner", counts)
	}
	if o.PageCount() != 1 {
		t.Fatalf("Count materialised pages: %d", o.PageCount())
	}
	// Straddling from a written page into a missing one.
	o.Count(0x2000-3, 8, counts)
	if counts[4] != 3 || counts[shadow.NoOwner] != 21 {
		t.Fatalf("counts after half-missing straddle = %v", counts)
	}
}

// TestMemoSwitchesPages: after the memo has settled on one page, ranged
// operations on another page must not read or write through it.
func TestMemoSwitchesPages(t *testing.T) {
	o := shadow.NewOwners()
	s := shadow.NewAddrSet()
	a, b := uint64(3*shadow.PageSize+100), uint64(9*shadow.PageSize+100)
	o.SetRange(a, 8, 1)
	s.AddRange(a, 8)
	// Same in-page offset on another page: a stale memo would alias a.
	o.SetRange(b, 8, 2)
	s.AddRange(b, 8)
	counts := make([]uint64, 3)
	o.Count(a, 8, counts)
	o.Count(b, 8, counts)
	if want := []uint64{0, 8, 8}; !equalCounts(counts, want) {
		t.Fatalf("Count = %v, want %v", counts, want)
	}
	if s.Count() != 16 {
		t.Fatalf("AddrSet count = %d, want 16", s.Count())
	}
	// Memo on b; a page that was never written must read as absent.
	c := uint64(20*shadow.PageSize + 100)
	if o.Owner(c) != shadow.NoOwner || s.Contains(c) {
		t.Fatalf("unwritten page read through the memo")
	}
	if o.Owner(a) != 1 || o.Owner(b) != 2 {
		t.Fatalf("owners = %d/%d, want 1/2", o.Owner(a), o.Owner(b))
	}
}

// BenchmarkAblation_ShadowPagedVsMap compares the paged shadow memory
// against the naive map-per-address representation on a realistic access
// pattern.
func BenchmarkAblation_ShadowPagedVsMap(b *testing.B) {
	const span = 1 << 20
	b.Run("paged", func(b *testing.B) {
		counts := make([]uint64, 8)
		for i := 0; i < b.N; i++ {
			o := shadow.NewOwners()
			for a := uint64(0); a < span; a += 8 {
				o.SetRange(a, 8, uint16(a%7+1))
			}
			for a := uint64(0); a < span; a += 8 {
				o.Count(a, 8, counts)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		counts := make([]uint64, 8)
		for i := 0; i < b.N; i++ {
			o := newMapOwners()
			for a := uint64(0); a < span; a += 8 {
				o.SetRange(a, 8, uint16(a%7+1))
			}
			for a := uint64(0); a < span; a += 8 {
				countBytewise(o, a, 8, counts)
			}
		}
	})
}
