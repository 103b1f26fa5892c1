package cache

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// refLine is one resident line of the reference model.
type refLine struct {
	addr  mem.Address
	data  [mem.CachelineSize]byte
	dirty bool
}

// refCache is a deliberately naive model of the cache contract: one
// slice entry per resident line (front = most recently used), linear
// lookups, and every range operation visiting every line of its range.
// The real cache must match it operation for operation — durations,
// bytes, counters and residency.
type refCache struct {
	backing  mem.Memory
	cap      int
	lru      []*refLine
	fill     [mem.CachelineSize]byte
	hits     uint64
	misses   uint64
	wbacks   uint64
	ntStores uint64
	flushes  uint64
	invals   uint64
}

func (r *refCache) find(la mem.Address) int {
	for i, l := range r.lru {
		if l.addr == la {
			return i
		}
	}
	return -1
}

func (r *refCache) remove(i int) { r.lru = append(r.lru[:i], r.lru[i+1:]...) }

func (r *refCache) touch(i int) *refLine {
	l := r.lru[i]
	r.remove(i)
	r.lru = append([]*refLine{l}, r.lru...)
	return l
}

func (r *refCache) insert(now sim.Time, la mem.Address, data []byte) (*refLine, sim.Duration, error) {
	var evict sim.Duration
	if len(r.lru) >= r.cap {
		v := r.lru[len(r.lru)-1]
		if v.dirty {
			d, err := r.backing.WriteAt(now, v.addr, v.data[:])
			if err != nil {
				return nil, 0, err
			}
			r.wbacks++
			evict = d
		}
		r.lru = r.lru[:len(r.lru)-1]
	}
	l := &refLine{addr: la}
	copy(l.data[:], data)
	r.lru = append([]*refLine{l}, r.lru...)
	return l, evict, nil
}

func (r *refCache) fetch(now sim.Time, la mem.Address) (*refLine, sim.Duration, error) {
	if i := r.find(la); i >= 0 {
		r.hits++
		return r.touch(i), HitLatency, nil
	}
	r.misses++
	d, err := r.backing.ReadAt(now, la, r.fill[:])
	if err != nil {
		return nil, 0, err
	}
	l, evict, err := r.insert(now+d, la, r.fill[:])
	if err != nil {
		return nil, 0, err
	}
	return l, d + evict, nil
}

func (r *refCache) Read(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		l, d, err := r.fetch(now+total, la)
		if err != nil {
			return err
		}
		copy(buf[off:off+n], l.data[lo:lo+n])
		total += d
		off += n
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

func (r *refCache) Write(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		var l *refLine
		var d sim.Duration
		var err error
		switch i := r.find(la); {
		case n == mem.CachelineSize && i >= 0:
			l, d = r.touch(i), StoreHitLatency
		case n == mem.CachelineSize:
			var zero [mem.CachelineSize]byte
			l, d, err = r.insert(now+total, la, zero[:])
			d += StoreHitLatency
		default:
			l, d, err = r.fetch(now+total, la)
			d += StoreHitLatency
		}
		if err != nil {
			return err
		}
		copy(l.data[lo:lo+n], buf[off:off+n])
		l.dirty = true
		total += d
		off += n
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

func (r *refCache) FlushLine(now sim.Time, a mem.Address) (sim.Duration, error) {
	i := r.find(mem.AlignDown(a))
	if i < 0 {
		return 0, nil
	}
	var d sim.Duration
	if l := r.lru[i]; l.dirty {
		wd, err := r.backing.WriteAt(now, l.addr, l.data[:])
		if err != nil {
			return 0, err
		}
		d = wd
		r.wbacks++
	}
	r.remove(i)
	r.flushes++
	return d, nil
}

func (r *refCache) FlushRange(now sim.Time, a mem.Address, size int) (sim.Duration, error) {
	var total sim.Duration
	err := forEachLine(a, size, func(la mem.Address, _, _ int) error {
		d, err := r.FlushLine(now+total, la)
		total += d
		return err
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

func (r *refCache) NTStore(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	flush, err := r.FlushRange(now, a, len(buf))
	if err != nil {
		return 0, err
	}
	r.ntStores++
	d, err := r.backing.WriteAt(now+flush, a, buf)
	if err != nil {
		return 0, err
	}
	return flush + d + FenceLatency, nil
}

func (r *refCache) InvalidateRange(a mem.Address, size int) {
	_ = forEachLine(a, size, func(la mem.Address, _, _ int) error {
		if i := r.find(la); i >= 0 {
			r.remove(i)
			r.invals++
		}
		return nil
	})
}

func (r *refCache) FlushAll(now sim.Time) (sim.Duration, error) {
	addrs := make([]mem.Address, 0, len(r.lru))
	for _, l := range r.lru {
		addrs = append(addrs, l.addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var total sim.Duration
	for _, la := range addrs {
		d, err := r.FlushLine(now+total, la)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// TestCacheMatchesNaiveReference drives the cache and the reference
// model, each over its own identical backing region, through seeded
// random operation sequences. A small capacity keeps eviction busy;
// ranges up to 9 KiB straddle pages; ranges past the region's end
// exercise error paths; the occasional Poke stands in for another
// host publishing to the pool.
func TestCacheMatchesNaiveReference(t *testing.T) {
	const regionSize = 64 << 10
	backing := func() *mem.Region {
		return mem.NewRegion("pool", 0, regionSize, mem.Timing{
			ReadLatency:  237,
			WriteLatency: 180,
			Bandwidth:    30,
		}, nil)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		capLines := 8 + rng.Intn(40)
		gotMem, wantMem := backing(), backing()
		c := New("A", gotMem, capLines)
		ref := &refCache{backing: wantMem, cap: capLines}

		// span picks a range: mostly small and line-local, sometimes
		// whole frames or just across a page edge, occasionally hanging
		// off the region's end.
		span := func() (mem.Address, int) {
			var n int
			switch rng.Intn(5) {
			case 4:
				// Cross a page edge by a few bytes either side.
				n = 1 + rng.Intn(2*mem.CachelineSize)
				return mem.Address((1+rng.Intn(3))*pageBytes - rng.Intn(n)), n
			case 0:
				n = 1 + rng.Intn(mem.CachelineSize)
			case 1:
				n = 1 + rng.Intn(512)
			case 2:
				n = 1 + rng.Intn(9<<10)
			default:
				n = rng.Intn(3) * pageBytes
			}
			if rng.Intn(50) == 0 {
				return mem.Address(regionSize - rng.Intn(n+1)), n
			}
			// Concentrate on the first pages so lines get reused.
			hot := 4 * pageBytes
			if rng.Intn(4) == 0 {
				hot = regionSize
			}
			a := rng.Intn(hot)
			if a+n > regionSize {
				a = regionSize - n
			}
			return mem.Address(a), n
		}

		now := sim.Time(0)
		for step := 0; step < 600; step++ {
			now += sim.Time(rng.Intn(500))
			a, n := span()
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(rng.Intn(256))
			}
			got, want := make([]byte, n), make([]byte, n)
			var op string
			var dGot, dWant sim.Duration
			var eGot, eWant error
			switch k := rng.Intn(9); k {
			case 0:
				op = "Read"
				dGot, eGot = c.Read(now, a, got)
				dWant, eWant = ref.Read(now, a, want)
			case 1:
				op = "Write"
				dGot, eGot = c.Write(now, a, payload)
				dWant, eWant = ref.Write(now, a, payload)
			case 2:
				op = "NTStore"
				dGot, eGot = c.NTStore(now, a, payload)
				dWant, eWant = ref.NTStore(now, a, payload)
			case 3:
				op = "FlushRange"
				dGot, eGot = c.FlushRange(now, a, n)
				dWant, eWant = ref.FlushRange(now, a, n)
			case 4:
				op = "InvalidateRange"
				c.InvalidateRange(a, n)
				ref.InvalidateRange(a, n)
			case 5:
				op = "ReadFresh"
				dGot, eGot = c.ReadFresh(now, a, got)
				ref.InvalidateRange(a, n)
				dWant, eWant = ref.Read(now, a, want)
			case 6:
				op = "ReadStream"
				dGot, eGot = c.ReadStream(now, a, got)
				ref.InvalidateRange(a, n)
				dWant, eWant = ref.backing.ReadAt(now, a, want)
			case 7:
				if rng.Intn(10) != 0 {
					op = "FlushLine"
					dGot, eGot = c.FlushLine(now, a)
					dWant, eWant = ref.FlushLine(now, a)
				} else {
					op = "FlushAll"
					dGot, eGot = c.FlushAll(now)
					dWant, eWant = ref.FlushAll(now)
				}
			default:
				op = "Poke"
				if a+mem.Address(n) <= regionSize {
					_ = gotMem.Poke(a, payload)
					_ = wantMem.Poke(a, payload)
				}
			}
			where := func() string { return fmt.Sprintf("seed %d step %d %s", seed, step, op) }
			if (eGot == nil) != (eWant == nil) {
				t.Fatalf("%s: err %v, reference err %v", where(), eGot, eWant)
			}
			if dGot != dWant {
				t.Fatalf("%s: took %v, reference %v", where(), dGot, dWant)
			}
			if eGot == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: read bytes differ from reference", where())
			}
			h, m, w := c.Stats()
			if h != ref.hits || m != ref.misses || w != ref.wbacks {
				t.Fatalf("%s: stats (%d,%d,%d), reference (%d,%d,%d)",
					where(), h, m, w, ref.hits, ref.misses, ref.wbacks)
			}
			if c.flushes != ref.flushes || c.invalidations != ref.invals || c.ntStores != ref.ntStores {
				t.Fatalf("%s: flushes/invalidations/ntstores (%d,%d,%d), reference (%d,%d,%d)",
					where(), c.flushes, c.invalidations, c.ntStores, ref.flushes, ref.invals, ref.ntStores)
			}
			if c.Len() != len(ref.lru) {
				t.Fatalf("%s: Len %d, reference %d", where(), c.Len(), len(ref.lru))
			}
		}
		// A full-line Write past the region's end leaves a resident line
		// that cannot be written back, so the final FlushAll may fail —
		// identically in both.
		dGot, eGot := c.FlushAll(now)
		dWant, eWant := ref.FlushAll(now)
		if dGot != dWant || (eGot == nil) != (eWant == nil) {
			t.Fatalf("seed %d: final FlushAll (%v, %v), reference (%v, %v)", seed, dGot, eGot, dWant, eWant)
		}
		gb, wb := make([]byte, regionSize), make([]byte, regionSize)
		_ = gotMem.Peek(0, gb)
		_ = wantMem.Peek(0, wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("seed %d: backing memory differs from reference after FlushAll", seed)
		}
		gr, gw, gbr, gbw := gotMem.Stats()
		wr, ww, wbr, wbw := wantMem.Stats()
		if gr != wr || gw != ww || gbr != wbr || gbw != wbw {
			t.Fatalf("seed %d: backing stats (%d,%d,%d,%d), reference (%d,%d,%d,%d)",
				seed, gr, gw, gbr, gbw, wr, ww, wbr, wbw)
		}
	}
}
