package main

import "time"

// The shared host the benchmark runs on changes speed under it: a fixed
// loop takes 1.7-2.5x longer in slow spells that last from milliseconds
// to minutes, as the host's other tenants come and go. Raw host times of
// the same work then spread by a quarter or more between runs minutes
// apart. The slowdown hits the simulator and a fixed reference loop
// nearly alike, so each episode also times the reference loop after every
// operation, and the end-to-end host times are scaled by the episode's
// mean reference time: they read as seconds on a host whose reference
// pass takes refNominal. The raw times are printed beside them.

// refNominal is a round figure near the median time of one reference
// pass on the host the benchmark was tuned on, a two-vCPU Xeon VM.
const refNominal = 400 * time.Microsecond

// refIters is how many steps one reference pass makes.
const refIters = 20000

// refLoop is the reference: xorshift steps that update a 256 KiB table
// and a 4096-entry map, with an 8 KiB copy every 64 steps, much like
// the simulator's mix of hashing, table updates and buffer copies. A
// pass allocates nothing, so the program's heap and garbage collector
// do not reach it. Each episode builds its own refLoop on fresh pages:
// where a table's pages land in the caches' sets can make one
// placement markedly slower than another for as long as it lives, and
// a new placement per episode averages that out over a run.
type refLoop struct {
	table    []uint64
	m        map[uint32]uint32
	src, dst []byte
	x        uint64
}

func newRefLoop() *refLoop {
	r := &refLoop{
		table: make([]uint64, 1<<15),
		m:     make(map[uint32]uint32, 4096),
		src:   make([]byte, 8192),
		dst:   make([]byte, 8192),
		x:     88172645463325252,
	}
	for i := uint32(0); i < 4096; i++ {
		r.m[i] = i
	}
	return r
}

func (r *refLoop) pass() {
	x := r.x
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.m[uint32(x&4095)] += uint32(x)
		r.table[x&(1<<15-1)] += x
		if i%64 == 0 {
			copy(r.dst, r.src)
			r.src[x&8191]++
		}
	}
	r.x = x
}

// sample times one reference pass. An untimed pass first brings its
// working set back into the caches, so that what the operation before
// it left there does not count.
func (r *refLoop) sample() time.Duration {
	r.pass()
	start := time.Now()
	r.pass()
	return time.Since(start)
}
