package cxl

import (
	"errors"
	"testing"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// dcdPod builds a pod with a per-host capacity quota.
func dcdPod(t *testing.T, quota int) *Pod {
	t.Helper()
	p, err := NewPod("dcd", PodConfig{
		Devices:        2,
		PortsPerDevice: 8,
		DeviceSize:     1 << 22,
		SharedSize:     1 << 20,
		QuotaPerHost:   quota,
	}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"A", "B"} {
		if _, err := p.AttachHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// The DCD isolation property: capacity freed by one tenant and
// reallocated to another is sanitized — the new tenant reads zeros, not
// the previous tenant's data.
func TestDCDSanitizeOnReallocation(t *testing.T) {
	p := dcdPod(t, 0)
	a, _ := p.Attachment("A")
	b, _ := p.Attachment("B")

	addr, err := a.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("TENANT-A-SECRET-KEY-MATERIAL")
	if _, err := a.Memory().WriteAt(0, addr, secret); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	// B allocates; first-fit hands back the same range.
	addr2, err := b.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != addr {
		t.Fatalf("allocator did not reuse the range (%#x vs %#x); test premise broken",
			uint64(addr2), uint64(addr))
	}
	got := make([]byte, len(secret))
	if _, err := b.Memory().ReadAt(1000, addr2, got); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("tenant B read tenant A's data at byte %d: %q", i, got)
		}
	}
}

func TestDCDFreshAllocationIsZeroed(t *testing.T) {
	p := dcdPod(t, 0)
	a, _ := p.Attachment("A")
	// Dirty the media directly (simulating factory/debug state).
	dev := p.Devices()[0]
	junk := make([]byte, 1024)
	for i := range junk {
		junk[i] = 0xAB
	}
	if err := dev.Media().Poke(dev.Base()+mem.Address(p.SharedSize()), junk); err != nil {
		t.Fatal(err)
	}
	addr, err := a.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if _, err := a.Memory().ReadAt(0, addr, got); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("fresh allocation dirty at %d", i)
		}
	}
}

func TestDCDQuotaEnforced(t *testing.T) {
	p := dcdPod(t, 1<<20) // 1 MiB per host
	a, _ := p.Attachment("A")
	b, _ := p.Attachment("B")
	addr, err := a.Alloc(1 << 19) // 512 KiB
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1 << 19); err != nil { // another 512 KiB: exactly at quota
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota alloc err = %v", err)
	}
	// Quota is per host: B is unaffected.
	if _, err := b.Alloc(1 << 19); err != nil {
		t.Fatalf("B blocked by A's quota: %v", err)
	}
	// Freeing restores headroom.
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1 << 19); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if a.AllocatedBytes() != 1<<20 {
		t.Fatalf("accounting: %d", a.AllocatedBytes())
	}
}

func TestDCDQuotaUnlimitedByDefault(t *testing.T) {
	p := dcdPod(t, 0)
	a, _ := p.Attachment("A")
	// Grab most of the pool: no quota in the way (only capacity).
	if _, err := a.Alloc(6 << 20); err != nil {
		t.Fatal(err)
	}
}

// freshPod builds a two-device pod with one host attached and a large,
// never-written shared segment.
func freshPod(tb testing.TB) *Pod {
	tb.Helper()
	p, err := NewPod("fresh", PodConfig{
		Devices:        2,
		PortsPerDevice: 8,
		DeviceSize:     1 << 23,
		SharedSize:     1 << 23,
	}, sim.NewRand(1))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.AttachHost("A"); err != nil {
		tb.Fatal(err)
	}
	return p
}

// Sanitizing capacity nobody has written costs nothing: the media
// already reads as zero, so no backing chunk is materialized. Each run
// sanitizes the next untouched 128 KiB of the shared segment, the way
// channel carves are sanitized before a ring is laid on them.
func TestSanitizeFreshCarveAllocatesNothing(t *testing.T) {
	p := freshPod(t)
	const n = 128 << 10
	next := p.SharedBase()
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.Sanitize(next, n); err != nil {
			t.Fatal(err)
		}
		next += n
	})
	if allocs != 0 {
		t.Fatalf("sanitizing a fresh carve allocates %.1f/op, want 0", allocs)
	}
	if next-p.SharedBase() > mem.Address(p.SharedSize()) {
		t.Fatal("test ran past the shared segment")
	}
	a, _ := p.Attachment("A")
	got := make([]byte, n)
	if _, err := a.Memory().ReadAt(0, p.SharedBase(), got); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("sanitized byte %d = %#x", i, c)
		}
	}
}

func BenchmarkPodSanitizeFresh(b *testing.B) {
	p := freshPod(b)
	// One jumbo-frame I/O buffer's carve of never-written memory.
	const n = 9216
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Sanitize(p.SharedBase(), n); err != nil {
			b.Fatal(err)
		}
	}
}
