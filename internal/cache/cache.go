// Package cache models a per-host CPU cache over simulated memory, with
// the software-coherence operations the paper's datapath depends on.
//
// CXL memory pools shipping today are not cache-coherent across hosts
// (§3: Back-Invalidate requires CXL 3.0 hardware that does not exist
// yet). A host that writes shared pool memory through its write-back
// cache leaves the data in its own cache; another host reading the same
// address from the pool sees stale bytes. The paper's datapath therefore
// publishes with non-temporal stores and reads with explicit
// invalidation (§4.1). This package makes that failure mode — and its
// fixes — concrete:
//
//   - Read/Write: normal cached accesses (write-allocate, write-back).
//   - NTStore: bypasses the cache, writing straight to memory.
//   - FlushLine/FlushRange: write back + invalidate (CLFLUSH).
//   - InvalidateRange: drop clean lines so the next read refetches.
//   - ReadFresh: invalidate + read, the receiver-side polling idiom.
//
// Stale reads are not an error: they are the simulated hardware behaving
// exactly as non-coherent hardware does. Tests assert both directions —
// that stale reads happen without coherence ops, and never happen with
// them.
package cache

import (
	"fmt"
	"slices"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Timing constants for on-chip operations. These are small compared to
// CXL latencies but are kept nonzero so per-operation cost ordering is
// realistic (cache hit < DDR < CXL < switched CXL).
const (
	// HitLatency is an LLC-class load hit.
	HitLatency sim.Duration = 20
	// StoreHitLatency is a store that hits the cache (store buffer
	// absorbs it).
	StoreHitLatency sim.Duration = 2
	// FenceLatency drains the store buffer (SFENCE).
	FenceLatency sim.Duration = 10
)

// DefaultLines is the default cache capacity in lines (2 MiB / 64 B).
const DefaultLines = 32768

// pageShift sizes the residency index (4 KiB pages). Resident lines
// are filed by page, so a range operation probes the index once per
// page rather than once per line, and skips pages with nothing
// resident — the common case for an 8 KiB frame NT-stored by a sender
// or invalidated by a receiver.
const pageShift = 12

const (
	pageBytes    = 1 << pageShift
	linesPerPage = pageBytes / mem.CachelineSize
)

// pageOf returns the index key of the page holding a.
func pageOf(a mem.Address) mem.Address { return a >> pageShift }

// slotOf returns the position of a's line within its page.
func slotOf(a mem.Address) int { return int(a&(pageBytes-1)) / mem.CachelineSize }

// page holds the resident lines of one 4 KiB page, indexed by slot;
// count is how many are non-nil. A page is in the index exactly while
// count > 0.
type page struct {
	lines [linesPerPage]*line
	count int
}

// line is one resident cacheline. Lines form an intrusive doubly-linked
// LRU list (front = most recent); evicted structs are recycled through
// the cache's free-list, so the miss/evict churn of a polling receiver
// costs zero steady-state allocations.
type line struct {
	addr       mem.Address
	data       [mem.CachelineSize]byte
	dirty      bool
	prev, next *line
}

// Cache is one host's private cache in front of a mem.Memory (its
// address space: local DDR + CXL windows). It is not safe for concurrent
// use; the simulation is single-threaded.
type Cache struct {
	host    string
	backing mem.Memory
	// pages indexes resident lines by page (key pageOf(addr)); n counts
	// resident lines across all pages.
	pages map[mem.Address]*page
	n     int
	// Intrusive LRU: head is most recent, tail least recent.
	head, tail *line
	// free is the recycled-line stack, linked through next; freePages
	// holds emptied pages for reuse.
	free      *line
	freePages []*page
	cap       int
	// fillBuf is the miss-path staging buffer. A local array would
	// escape to the heap on every miss because it is passed through the
	// mem.Memory interface; the cache is single-threaded, so one
	// persistent buffer serves every fill.
	fillBuf [mem.CachelineSize]byte

	// Stats.
	hits, misses    uint64
	writebacks      uint64
	ntStores        uint64
	flushes         uint64
	invalidations   uint64
	staleRiskWrites uint64 // dirty lines created in non-local memory
}

// New creates a cache for host over backing with capacity capLines
// (DefaultLines if <= 0).
func New(host string, backing mem.Memory, capLines int) *Cache {
	if capLines <= 0 {
		capLines = DefaultLines
	}
	return &Cache{
		host:    host,
		backing: backing,
		pages:   make(map[mem.Address]*page),
		cap:     capLines,
	}
}

// Host returns the owning host name.
func (c *Cache) Host() string { return c.host }

// Backing returns the underlying memory.
func (c *Cache) Backing() mem.Memory { return c.backing }

// Stats returns (hits, misses, writebacks).
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}

// unlink removes a line from the LRU list.
func (c *Cache) unlink(l *line) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		c.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		c.tail = l.prev
	}
	l.prev, l.next = nil, nil
}

// pushFront links a line at the LRU front.
func (c *Cache) pushFront(l *line) {
	l.prev, l.next = nil, c.head
	if c.head != nil {
		c.head.prev = l
	}
	c.head = l
	if c.tail == nil {
		c.tail = l
	}
}

// touch moves a line to the LRU front.
func (c *Cache) touch(l *line) {
	if c.head == l {
		return
	}
	c.unlink(l)
	c.pushFront(l)
}

// lookup returns the resident line at line address la, or nil.
func (c *Cache) lookup(la mem.Address) *line {
	if p := c.pages[pageOf(la)]; p != nil {
		return p.lines[slotOf(la)]
	}
	return nil
}

// file enters a line into the page index.
func (c *Cache) file(l *line) {
	k := pageOf(l.addr)
	p := c.pages[k]
	if p == nil {
		if n := len(c.freePages); n > 0 {
			p = c.freePages[n-1]
			c.freePages = c.freePages[:n-1]
		} else {
			p = &page{}
		}
		c.pages[k] = p
	}
	p.lines[slotOf(l.addr)] = l
	p.count++
	c.n++
}

// release drops a line from the index and LRU and files its struct on
// the free-list for reuse; a page left empty leaves the index.
func (c *Cache) release(l *line) {
	c.unlink(l)
	k := pageOf(l.addr)
	p := c.pages[k]
	p.lines[slotOf(l.addr)] = nil
	if p.count--; p.count == 0 {
		delete(c.pages, k)
		c.freePages = append(c.freePages, p)
	}
	c.n--
	l.next = c.free
	c.free = l
}

// eachResident calls f on every resident line overlapping [a, a+size),
// in ascending address order. It probes the index once per page and
// skips pages with nothing resident, which is exact for every caller:
// flushing or invalidating a line that is not resident does nothing.
// f may release the line it is given.
func (c *Cache) eachResident(a mem.Address, size int, f func(l *line) error) error {
	if size <= 0 {
		return nil
	}
	first, end := mem.AlignDown(a), a+mem.Address(size)
	for pa := first &^ (pageBytes - 1); pa < end && c.n > 0; pa += pageBytes {
		p := c.pages[pageOf(pa)]
		if p == nil {
			continue
		}
		lo, hi := 0, linesPerPage
		if first > pa {
			lo = slotOf(first)
		}
		if end < pa+pageBytes {
			hi = slotOf(end-1) + 1
		}
		for i := lo; i < hi; i++ {
			if l := p.lines[i]; l != nil {
				if err := f(l); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newLine pops a recycled struct or allocates one.
func (c *Cache) newLine() *line {
	if l := c.free; l != nil {
		c.free = l.next
		l.next = nil
		return l
	}
	return &line{}
}

// insert adds a line, evicting the LRU line if at capacity. Evicting a
// dirty line writes it back (timed).
func (c *Cache) insert(now sim.Time, addr mem.Address, data []byte, dirty bool) (*line, sim.Duration, error) {
	var evictCost sim.Duration
	if c.n >= c.cap {
		victim := c.tail
		if victim.dirty {
			d, err := c.backing.WriteAt(now, victim.addr, victim.data[:])
			if err != nil {
				return nil, 0, fmt.Errorf("cache %s: writeback of %#x: %w", c.host, uint64(victim.addr), err)
			}
			c.writebacks++
			evictCost += d
		}
		c.release(victim)
	}
	l := c.newLine()
	l.addr, l.dirty = addr, dirty
	copy(l.data[:], data)
	c.pushFront(l)
	c.file(l)
	return l, evictCost, nil
}

// fetch returns the line for addr, loading it from backing on a miss.
func (c *Cache) fetch(now sim.Time, addr mem.Address) (*line, sim.Duration, error) {
	if l := c.lookup(addr); l != nil {
		c.hits++
		c.touch(l)
		return l, HitLatency, nil
	}
	c.misses++
	d, err := c.backing.ReadAt(now, addr, c.fillBuf[:])
	if err != nil {
		return nil, 0, err
	}
	l, evictCost, err := c.insert(now+d, addr, c.fillBuf[:], false)
	if err != nil {
		return nil, 0, err
	}
	return l, d + evictCost, nil
}

// forEachLine iterates cacheline-aligned chunks of [a, a+size).
func forEachLine(a mem.Address, size int, f func(lineAddr mem.Address, off, n int) error) error {
	end := a + mem.Address(size)
	cur := a
	for cur < end {
		la := mem.AlignDown(cur)
		n := int(la) + mem.CachelineSize - int(cur)
		if rem := int(end - cur); rem < n {
			n = rem
		}
		if err := f(la, int(cur-la), n); err != nil {
			return err
		}
		cur += mem.Address(n)
	}
	return nil
}

// Read performs a cached read of len(buf) bytes at a. Lines present in
// the cache are served locally — including stale copies of pool memory
// another host has since overwritten. That is the point.
func (c *Cache) Read(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		l, d, err := c.fetch(now+total, la)
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

// Write performs a cached write (write-allocate, write-back). The data
// lands in this host's cache and reaches memory only on eviction, flush,
// or writeback — so it is NOT visible to other hosts yet.
func (c *Cache) Write(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	off := 0
	err := forEachLine(a, len(buf), func(la mem.Address, lo, n int) error {
		var l *line
		var d sim.Duration
		var err error
		if n == mem.CachelineSize {
			// Full-line store: no need to read-for-ownership on
			// non-coherent memory; allocate directly.
			if existing := c.lookup(la); existing != nil {
				l = existing
				c.touch(l)
				d = StoreHitLatency
			} else {
				var zero [mem.CachelineSize]byte
				var evictCost sim.Duration
				l, evictCost, err = c.insert(now+total, la, zero[:], false)
				if err != nil {
					return err
				}
				d = StoreHitLatency + evictCost
			}
		} else {
			l, d, err = c.fetch(now+total, la)
			if err != nil {
				return err
			}
			d += StoreHitLatency
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

// NTStore writes buf directly to memory, bypassing and invalidating this
// cache's copies (MOVNT semantics). This is how the paper's channel
// publishes messages (§4.1: "using non-temporal stores to send
// messages").
func (c *Cache) NTStore(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	// An NT store to a line that is resident (and possibly dirty with
	// *other* bytes of the same line) first writes the line back, as x86
	// implementations do, so no earlier cached store is lost.
	var flushCost sim.Duration
	err := c.eachResident(a, len(buf), func(l *line) error {
		d, err := c.flush(now+flushCost, l)
		if err != nil {
			return err
		}
		flushCost += d
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.ntStores++
	d, err := c.backing.WriteAt(now+flushCost, a, buf)
	if err != nil {
		return 0, err
	}
	return flushCost + d + FenceLatency, nil
}

// FlushLine writes back (if dirty) and invalidates the line containing a
// (CLFLUSH).
func (c *Cache) FlushLine(now sim.Time, a mem.Address) (sim.Duration, error) {
	l := c.lookup(mem.AlignDown(a))
	if l == nil {
		return 0, nil
	}
	return c.flush(now, l)
}

// flush writes back (if dirty) and invalidates resident line l.
func (c *Cache) flush(now sim.Time, l *line) (sim.Duration, error) {
	var d sim.Duration
	if l.dirty {
		wd, err := c.backing.WriteAt(now, l.addr, l.data[:])
		if err != nil {
			return 0, err
		}
		d = wd
		c.writebacks++
	}
	c.release(l)
	c.flushes++
	return d, nil
}

// FlushRange flushes every line overlapping [a, a+size). Dirty lines are
// written back serially, which is what a CLFLUSH loop costs.
func (c *Cache) FlushRange(now sim.Time, a mem.Address, size int) (sim.Duration, error) {
	var total sim.Duration
	err := c.eachResident(a, size, func(l *line) error {
		d, err := c.flush(now+total, l)
		if err != nil {
			return err
		}
		total += d
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// InvalidateRange drops any cached copies of [a, a+size) WITHOUT writing
// back. Dirty data in the range is lost, as with CLFLUSH-less INVD-style
// invalidation; the receiver side of a channel uses it on memory it only
// reads.
func (c *Cache) InvalidateRange(a mem.Address, size int) {
	_ = c.eachResident(a, size, func(l *line) error {
		c.release(l)
		c.invalidations++
		return nil
	})
}

// ReadFresh invalidates then reads, guaranteeing the bytes come from
// memory rather than this host's cache. This is the polling idiom for
// non-coherent shared memory.
func (c *Cache) ReadFresh(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	c.InvalidateRange(a, len(buf))
	return c.Read(now, a, buf)
}

// ReadStream performs a non-caching bulk read (non-temporal loads):
// any stale cached copies are dropped and the bytes stream from memory
// in one pipelined transfer — one idle latency plus the bandwidth term,
// instead of one idle latency per cacheline. This is how stacks move
// payload data; ReadFresh's line-at-a-time cost is only appropriate for
// small control words.
func (c *Cache) ReadStream(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	c.InvalidateRange(a, len(buf))
	return c.backing.ReadAt(now, a, buf)
}

// Fence models SFENCE: in this single-threaded simulation stores are
// already ordered, so it only costs time.
func (c *Cache) Fence() sim.Duration { return FenceLatency }

// FlushAll writes back and invalidates everything (used on host
// hot-remove so no dirty pool data is stranded in a dead host's cache).
func (c *Cache) FlushAll(now sim.Time) (sim.Duration, error) {
	var total sim.Duration
	// Collect page keys first (flushing mutates the index), then walk
	// them in ascending order: lines flush in address order.
	keys := make([]mem.Address, 0, len(c.pages))
	for k := range c.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, l := range c.pages[k].lines {
			if l == nil {
				continue
			}
			d, err := c.flush(now+total, l)
			if err != nil {
				return 0, err
			}
			total += d
		}
	}
	return total, nil
}

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.n }
