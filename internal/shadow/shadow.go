// Package shadow provides the shadow-memory data structures behind QUAD's
// producer/consumer analysis: a last-writer map tracking, for every guest
// byte, which kernel most recently produced it, and paged address sets for
// unique-memory-address (UnMA) accounting.
//
// Both structures are sparse and paged (4 KiB granules mirroring the guest
// memory layout), so the cost is proportional to the bytes the workload
// actually touches.  The ranged operations (Owners.SetRange, Owners.Count,
// AddrSet.AddRange) resolve the page once per access behind a one-entry
// last-page memo, so a steady stream of accesses to one page costs no map
// lookups; only an access straddling a page boundary falls back to the
// per-byte path.
package shadow

import "math/bits"

// PageBits / PageSize match the guest memory page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	offMask  = PageSize - 1
)

// NoOwner marks a byte that no tracked kernel has written yet.
const NoOwner uint16 = 0

// inPage reports whether [addr, addr+size) lies inside one page.
func inPage(addr uint64, size int) bool {
	return addr&offMask+uint64(size) <= PageSize
}

// pageTable is a sparse map of shadow pages behind a one-entry
// last-page memo: consecutive accesses overwhelmingly hit the same page.
type pageTable[P any] struct {
	pages    map[uint64]*P
	lastIdx  uint64
	lastPage *P // nil until a page exists
}

func newPageTable[P any]() pageTable[P] {
	return pageTable[P]{pages: make(map[uint64]*P)}
}

// lookup returns page idx, or nil when it was never materialised.
func (t *pageTable[P]) lookup(idx uint64) *P {
	if t.lastPage != nil && t.lastIdx == idx {
		return t.lastPage
	}
	p := t.pages[idx]
	if p != nil {
		t.lastIdx, t.lastPage = idx, p
	}
	return p
}

// page returns page idx, materialising it on first use.
func (t *pageTable[P]) page(idx uint64) *P {
	if p := t.lookup(idx); p != nil {
		return p
	}
	p := new(P)
	t.pages[idx] = p
	t.lastIdx, t.lastPage = idx, p
	return p
}

// Owners maps every guest byte to the id of the kernel that last wrote
// it.  Ids are small integers assigned by the tool (0 is reserved for
// "unknown").
type Owners struct {
	pageTable[[PageSize]uint16]
}

// NewOwners returns an empty last-writer map.
func NewOwners() *Owners {
	return &Owners{newPageTable[[PageSize]uint16]()}
}

// SetRange records owner as the producer of [addr, addr+size).
func (o *Owners) SetRange(addr uint64, size int, owner uint16) {
	if size <= 0 {
		return
	}
	if inPage(addr, size) {
		off := addr & offMask
		cells := o.page(addr >> PageBits)[off : off+uint64(size)]
		for i := range cells {
			cells[i] = owner
		}
		return
	}
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		o.page(a >> PageBits)[a&offMask] = owner
	}
}

// Count adds one to counts[owner] for the producer of every byte in
// [addr, addr+size); bytes never written count under NoOwner.  counts
// must be long enough to index every owner id stored so far.
func (o *Owners) Count(addr uint64, size int, counts []uint64) {
	if size <= 0 {
		return
	}
	if inPage(addr, size) {
		p := o.lookup(addr >> PageBits)
		if p == nil {
			counts[NoOwner] += uint64(size)
			return
		}
		// Count runs of one owner: an access is usually a single
		// producer's word, so this is one add rather than one per byte.
		off := addr & offMask
		cells := p[off : off+uint64(size)]
		w, run := cells[0], uint64(0)
		for _, c := range cells {
			if c != w {
				counts[w] += run
				w, run = c, 0
			}
			run++
		}
		counts[w] += run
		return
	}
	for i := 0; i < size; i++ {
		counts[o.Owner(addr+uint64(i))]++
	}
}

// Owner returns the producer of the byte at addr.
func (o *Owners) Owner(addr uint64) uint16 {
	if p := o.lookup(addr >> PageBits); p != nil {
		return p[addr&offMask]
	}
	return NoOwner
}

// PageCount returns the number of shadow pages materialised.
func (o *Owners) PageCount() int { return len(o.pages) }

// AddrSet is a sparse set of guest addresses with O(1) membership and an
// incrementally maintained cardinality: the UnMA counters of the paper.
type AddrSet struct {
	pageTable[[PageSize / 8]byte]
	count uint64
}

// NewAddrSet returns an empty set.
func NewAddrSet() *AddrSet {
	return &AddrSet{pageTable: newPageTable[[PageSize / 8]byte]()}
}

// Add inserts addr, reporting whether it was newly added.
func (s *AddrSet) Add(addr uint64) bool {
	p := s.page(addr >> PageBits)
	off := addr & offMask
	mask := byte(1) << (off & 7)
	if p[off>>3]&mask != 0 {
		return false
	}
	p[off>>3] |= mask
	s.count++
	return true
}

// AddRange inserts [addr, addr+size).
func (s *AddrSet) AddRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	if !inPage(addr, size) {
		for i := 0; i < size; i++ {
			s.Add(addr + uint64(i))
		}
		return
	}
	p := s.page(addr >> PageBits)
	off := addr & offMask
	end := off + uint64(size)
	for off < end {
		lo := off & 7
		n := min(8-lo, end-off)
		mask := byte(0xff>>(8-n)) << lo
		cell := &p[off>>3]
		s.count += uint64(bits.OnesCount8(mask &^ *cell))
		*cell |= mask
		off += n
	}
}

// Contains reports set membership.
func (s *AddrSet) Contains(addr uint64) bool {
	p := s.lookup(addr >> PageBits)
	if p == nil {
		return false
	}
	off := addr & offMask
	return p[off>>3]&(byte(1)<<(off&7)) != 0
}

// Count returns the set cardinality (the UnMA figure).
func (s *AddrSet) Count() uint64 { return s.count }
