package mem

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"cxlpool/internal/sim"
)

// mapAllocator is the allocator as it was before start-bitmap
// bookkeeping: the same first-fit free list, with live block sizes kept
// in a map. TestAllocatorMatchesMapReference holds Allocator to it.
type mapAllocator struct {
	base Address
	size int
	free []span
	used map[Address]int
}

func newMapAllocator(base Address, size int) *mapAllocator {
	alignedBase := AlignUp(base)
	sz := int(AlignDown(base+Address(size)) - alignedBase)
	return &mapAllocator{
		base: alignedBase,
		size: sz,
		free: []span{{base: alignedBase, size: sz}},
		used: make(map[Address]int),
	}
}

func (a *mapAllocator) FreeBytes() int {
	n := 0
	for _, s := range a.free {
		n += s.size
	}
	return n
}

func (a *mapAllocator) Alloc(n int) (Address, error) {
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
			a.used[addr] = n
			return addr, nil
		}
	}
	return 0, fmt.Errorf("%w: want %d bytes, %d free (fragmented into %d spans)",
		ErrNoSpace, n, a.FreeBytes(), len(a.free))
}

func (a *mapAllocator) Free(addr Address) error {
	n, ok := a.used[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	delete(a.used, addr)
	idx := sort.Search(len(a.free), func(i int) bool { return a.free[i].base > addr })
	a.free = append(a.free, span{})
	copy(a.free[idx+1:], a.free[idx:])
	a.free[idx] = span{base: addr, size: n}
	if idx+1 < len(a.free) && a.free[idx].base+Address(a.free[idx].size) == a.free[idx+1].base {
		a.free[idx].size += a.free[idx+1].size
		a.free = append(a.free[:idx+1], a.free[idx+2:]...)
	}
	if idx > 0 && a.free[idx-1].base+Address(a.free[idx-1].size) == a.free[idx].base {
		a.free[idx-1].size += a.free[idx].size
		a.free = append(a.free[:idx], a.free[idx+1:]...)
	}
	return nil
}

// allocPair drives the allocator and its map reference in lockstep and
// fails the test on the first observable difference.
type allocPair struct {
	t    *testing.T
	got  *Allocator
	want *mapAllocator
	live []Address // reference's live block starts, allocation order
	// crossed counts allocations that straddle a bitmap page boundary.
	crossed int
}

func (p *allocPair) check(op string) {
	p.t.Helper()
	wantFree := p.want.FreeBytes()
	if g := p.got.FreeBytes(); g != wantFree {
		p.t.Fatalf("%s: FreeBytes %d, want %d", op, g, wantFree)
	}
	if g, w := p.got.UsedBytes(), p.want.size-wantFree; g != w {
		p.t.Fatalf("%s: UsedBytes %d, want %d", op, g, w)
	}
	if g, w := p.got.AllocCount(), len(p.want.used); g != w {
		p.t.Fatalf("%s: AllocCount %d, want %d", op, g, w)
	}
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

func (p *allocPair) alloc(n int) {
	p.t.Helper()
	op := fmt.Sprintf("Alloc(%d)", n)
	ga, gerr := p.got.Alloc(n)
	wa, werr := p.want.Alloc(n)
	if ga != wa || !sameErr(gerr, werr) {
		p.t.Fatalf("%s = %#x, %v; want %#x, %v", op, uint64(ga), gerr, uint64(wa), werr)
	}
	if werr == nil {
		p.live = append(p.live, wa)
		first := int(wa-p.want.base) / CachelineSize
		last := first + p.want.used[wa]/CachelineSize - 1
		if first/pageLines != last/pageLines {
			p.crossed++
		}
	}
	p.check(op)
}

// free releases addr in both and expects the same outcome; a free the
// reference accepts is dropped from the live list.
func (p *allocPair) free(addr Address, wantBad bool) {
	p.t.Helper()
	op := fmt.Sprintf("Free(%#x)", uint64(addr))
	gerr := p.got.Free(addr)
	werr := p.want.Free(addr)
	if !sameErr(gerr, werr) {
		p.t.Fatalf("%s = %v, want %v", op, gerr, werr)
	}
	if wantBad && !errors.Is(gerr, ErrBadFree) {
		p.t.Fatalf("%s = %v, want ErrBadFree", op, gerr)
	}
	if werr == nil {
		for i, a := range p.live {
			if a == addr {
				p.live = append(p.live[:i], p.live[i+1:]...)
				break
			}
		}
	}
	p.check(op)
}

// Start-bitmap bookkeeping must be invisible: across random Alloc/Free
// streams the allocator returns exactly the reference's addresses and
// errors, reports the same byte and block counts, and rejects every
// bad free (double, block-interior, misaligned, out of range) alike.
func TestAllocatorMatchesMapReference(t *testing.T) {
	// Page edges first: a block whose scan crosses a whole page holding
	// no start and stops on the next page's first line, and blocks that
	// start and end exactly on page boundaries.
	const pageBytes = pageLines * CachelineSize
	edge := &allocPair{t: t, got: NewAllocator(0, 4*pageBytes), want: newMapAllocator(0, 4*pageBytes)}
	edge.alloc(CachelineSize)
	edge.alloc(2*pageBytes - CachelineSize)
	edge.alloc(pageBytes)
	edge.alloc(pageBytes)
	for _, i := range []int{1, 1, 1, 0} {
		edge.free(edge.live[i], false)
	}
	totalCrossed := edge.crossed
	for seed := int64(1); seed <= 24; seed++ {
		rng := sim.NewRand(seed)
		// An unaligned base and a range ending mid-page: the allocator
		// rounds both inward, and the last bitmap page is partial.
		base := Address(0x10000 + 17 + rng.Intn(64)*CachelineSize)
		size := 3*pageLines*CachelineSize + rng.Intn(pageLines)*CachelineSize + 5
		p := &allocPair{t: t, got: NewAllocator(base, size), want: newMapAllocator(base, size)}
		var freed []Address
		for op := 0; op < 2500; op++ {
			switch r := rng.Intn(100); {
			case r < 40:
				// Mostly buffer-sized blocks, some small, some big enough
				// to span a bitmap page (256 KiB) or two.
				switch k := rng.Intn(10); {
				case k < 5:
					p.alloc(9216)
				case k < 8:
					p.alloc(1 + rng.Intn(4096))
				default:
					p.alloc(1 + rng.Intn(2*pageLines*CachelineSize))
				}
			case r < 75:
				if len(p.live) > 0 {
					addr := p.live[rng.Intn(len(p.live))]
					p.free(addr, false)
					freed = append(freed, addr)
				}
			case r < 80:
				// Double free (unless the address was handed out again).
				if len(freed) > 0 {
					addr := freed[rng.Intn(len(freed))]
					_, relive := p.want.used[addr]
					p.free(addr, !relive)
				}
			case r < 87:
				// Block interior: every line of a block but its first.
				if len(p.live) > 0 {
					addr := p.live[rng.Intn(len(p.live))]
					if lines := p.want.used[addr] / CachelineSize; lines > 1 {
						p.free(addr+Address((1+rng.Intn(lines-1))*CachelineSize), true)
					}
				}
			case r < 93:
				// Misaligned: a live start, an interior or a free address
				// nudged off its cacheline.
				off := Address(1 + rng.Intn(CachelineSize-1))
				if len(p.live) > 0 && rng.Intn(2) == 0 {
					p.free(p.live[rng.Intn(len(p.live))]+off, true)
				} else {
					p.free(p.want.base+Address(rng.Intn(p.want.size))&^(CachelineSize-1)+off, true)
				}
			default:
				// Out of range, on either side and far away.
				end := p.want.base + Address(p.want.size)
				for _, addr := range []Address{0, p.want.base - CachelineSize, end, end + CachelineSize, 1 << 62} {
					p.free(addr, true)
				}
			}
		}
		// Drain in random order, then one block fills the whole range.
		for len(p.live) > 0 {
			p.free(p.live[rng.Intn(len(p.live))], false)
		}
		p.alloc(p.want.size)
		p.alloc(1) // nothing left
		p.free(p.want.base+CachelineSize, true)
		p.free(p.want.base, false)
		p.free(p.want.base, true)
		p.alloc(p.want.size)
		totalCrossed += p.crossed
	}
	if totalCrossed == 0 {
		t.Fatal("no allocation straddled a bitmap page boundary")
	}
}

// BenchmarkAllocatorBindChurn models a rack's shared segment under
// tenant churn: ~5.5k live 9216 B buffers, and per op one vNIC bind and
// unbind — 266 allocations (256 TX, 8 RX, two channel rings) of which
// all but 10 are freed again. The 10 left live per cycle are released
// 50 cycles later, keeping the live set steady.
func BenchmarkAllocatorBindChurn(b *testing.B) {
	const (
		bufSize  = 9216
		perBind  = 266
		kept     = 10
		held     = 50
		longLive = 5000
	)
	a := NewAllocator(0, 64<<20)
	for i := 0; i < longLive; i++ {
		if _, err := a.Alloc(bufSize); err != nil {
			b.Fatal(err)
		}
	}
	ring := make([][]Address, held)
	for i := range ring {
		ring[i] = make([]Address, 0, kept)
	}
	bind := make([]Address, perBind)
	cycle := func(i int) {
		for j := range bind {
			p, err := a.Alloc(bufSize)
			if err != nil {
				b.Fatal(err)
			}
			bind[j] = p
		}
		for _, p := range bind[kept:] {
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
		old := ring[i%held]
		for _, p := range old {
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
		ring[i%held] = append(old[:0], bind[:kept]...)
	}
	for i := 0; i < held; i++ {
		cycle(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(held + i)
	}
}
