package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

// Allocator hands out cacheline-aligned blocks from an address range.
// It is a first-fit free-list allocator with coalescing on free — simple,
// deterministic, and sufficient for I/O buffer pools, which is what the
// paper places in CXL memory (§4.1: "TX and RX buffers, not the TX/RX
// queues").
//
// Live blocks and free spans tile the range: every cacheline belongs
// to exactly one of them, and each block ends where the next block or
// free span begins (or the range ends). So the allocator records only
// where live blocks start — one bit per cacheline, in bitmap pages made
// on first use — and Free recovers a block's length by scanning to the
// next start bit or free span, at a cost proportional to that length.
type Allocator struct {
	base  Address
	size  int
	free  []span // sorted by base, non-adjacent (coalesced)
	count int    // live blocks
	// starts[p] holds the start bits of lines [p*pageLines,
	// (p+1)*pageLines), relative to base; nil pages hold no starts, and
	// the directory grows only as far as the highest page touched.
	starts []*startPage
}

type span struct {
	base Address
	size int
}

const (
	pageLines = 1 << 12 // cachelines per bitmap page (256 KiB of range)
	pageWords = pageLines / 64
)

type startPage [pageWords]uint64

// NewAllocator manages [base, base+size). Base and size are rounded
// inward to cacheline alignment.
func NewAllocator(base Address, size int) *Allocator {
	alignedBase := AlignUp(base)
	end := AlignDown(base + Address(size))
	if end <= alignedBase {
		panic(fmt.Sprintf("mem: allocator range [%#x,+%d) too small after alignment",
			uint64(base), size))
	}
	sz := int(end - alignedBase)
	return &Allocator{
		base: alignedBase,
		size: sz,
		free: []span{{base: alignedBase, size: sz}},
	}
}

// Size returns the total managed bytes.
func (a *Allocator) Size() int { return a.size }

// FreeBytes returns the number of currently unallocated bytes.
func (a *Allocator) FreeBytes() int {
	n := 0
	for _, s := range a.free {
		n += s.size
	}
	return n
}

// UsedBytes returns the number of currently allocated bytes.
func (a *Allocator) UsedBytes() int { return a.size - a.FreeBytes() }

// Alloc returns the base address of a new cacheline-aligned block of at
// least n bytes (rounded up to a multiple of the cacheline size).
func (a *Allocator) Alloc(n int) (Address, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: alloc of non-positive size %d", n)
	}
	n = int(AlignUp(Address(n)))
	for i, s := range a.free {
		if s.size >= n {
			addr := s.base
			if s.size == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{base: s.base + Address(n), size: s.size - n}
			}
			a.setStart(a.line(addr))
			a.count++
			return addr, nil
		}
	}
	return 0, fmt.Errorf("%w: want %d bytes, %d free (fragmented into %d spans)",
		ErrNoSpace, n, a.FreeBytes(), len(a.free))
}

// Free releases a block previously returned by Alloc.
func (a *Allocator) Free(addr Address) error {
	if addr < a.base || addr >= a.base+Address(a.size) || addr%CachelineSize != 0 ||
		!a.isStart(a.line(addr)) {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	idx := sort.Search(len(a.free), func(i int) bool { return a.free[i].base > addr })
	// The block runs to the next live start or the next free span,
	// whichever comes first.
	limit := a.size / CachelineSize
	if idx < len(a.free) {
		limit = a.line(a.free[idx].base)
	}
	first := a.line(addr)
	n := (a.nextStart(first+1, limit) - first) * CachelineSize
	a.clearStart(first)
	a.count--
	// Insert into sorted free list and coalesce with neighbors.
	a.free = append(a.free, span{})
	copy(a.free[idx+1:], a.free[idx:])
	a.free[idx] = span{base: addr, size: n}
	// Coalesce with next.
	if idx+1 < len(a.free) && a.free[idx].base+Address(a.free[idx].size) == a.free[idx+1].base {
		a.free[idx].size += a.free[idx+1].size
		a.free = append(a.free[:idx+1], a.free[idx+2:]...)
	}
	// Coalesce with previous.
	if idx > 0 && a.free[idx-1].base+Address(a.free[idx-1].size) == a.free[idx].base {
		a.free[idx-1].size += a.free[idx].size
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	}
	return nil
}

// AllocCount returns the number of live allocations.
func (a *Allocator) AllocCount() int { return a.count }

// line is addr's cacheline index within the range.
func (a *Allocator) line(addr Address) int { return int(addr-a.base) / CachelineSize }

func (a *Allocator) setStart(l int) {
	p := l / pageLines
	if p >= len(a.starts) {
		a.starts = append(a.starts, make([]*startPage, p+1-len(a.starts))...)
	}
	if a.starts[p] == nil {
		a.starts[p] = new(startPage)
	}
	a.starts[p][l%pageLines/64] |= 1 << (l % 64)
}

func (a *Allocator) clearStart(l int) {
	a.starts[l/pageLines][l%pageLines/64] &^= 1 << (l % 64)
}

func (a *Allocator) isStart(l int) bool {
	p := l / pageLines
	return p < len(a.starts) && a.starts[p] != nil &&
		a.starts[p][l%pageLines/64]&(1<<(l%64)) != 0
}

// nextStart returns the first line in [from, limit) where a live block
// starts, or limit when none does.
func (a *Allocator) nextStart(from, limit int) int {
	for l := from; l < limit; {
		p := l / pageLines
		if p >= len(a.starts) {
			break
		}
		pg := a.starts[p]
		if pg == nil {
			l = (p + 1) * pageLines
			continue
		}
		if w := pg[l%pageLines/64] >> (l % 64); w != 0 {
			return min(l+bits.TrailingZeros64(w), limit)
		}
		l = l&^63 + 64
	}
	return limit
}
