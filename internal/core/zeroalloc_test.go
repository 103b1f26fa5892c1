package core

import (
	"testing"

	"cxlpool/internal/sim"
)

// TestVNICDatapathAllocs pins the steady-state allocation budget of the
// pooled vNIC TX/RX path: payload NT-store, descriptor send, agent
// forwarding, physical TX, RX completion, and delivery back to the
// application must run without per-packet allocation.
func TestVNICDatapathAllocs(t *testing.T) {
	pod, err := NewPod(Config{Hosts: 2, NICsPerHost: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := pod.Host("host0")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := pod.Host("host1")
	if err != nil {
		t.Fatal(err)
	}
	// host0's vNIC is served by host1's NIC (the pooled path); traffic
	// goes to host0's own NIC where a local vNIC delivers it.
	v := NewVirtualNIC(h0, "v", VNICConfig{BufSize: 1024, TxBuffers: 64, RxBuffers: 64, ChannelSlots: 256})
	if _, err := v.Bind(h1, "host1-nic0"); err != nil {
		t.Fatal(err)
	}
	sink := NewVirtualNIC(h0, "sink", VNICConfig{BufSize: 1024, RxBuffers: 64, ChannelSlots: 256})
	if _, err := sink.Bind(h0, "host0-nic0"); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sink.OnReceive(func(_ sim.Time, _ string, payload []byte) {
		if len(payload) != 512 {
			t.Errorf("delivered %d bytes", len(payload))
		}
		delivered++
	})
	payload := make([]byte, 512)
	now := sim.Time(0)
	step := func() {
		d, err := v.Send(now, "host0-nic0", payload)
		if err != nil {
			t.Fatal(err)
		}
		now += d + 20*sim.Microsecond
		if _, err := pod.Engine.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	// Warm scratch buffers, channels, caches, and event pools.
	for i := 0; i < 32; i++ {
		step()
	}
	if delivered == 0 {
		t.Fatal("warmup delivered nothing")
	}
	before := delivered
	allocs := testing.AllocsPerRun(300, step)
	if delivered <= before {
		t.Fatal("measurement window delivered nothing")
	}
	if allocs > 2 {
		t.Fatalf("vNIC TX/RX round trip allocates %.1f/op, want <= 2", allocs)
	}
}

// idleLifecycleBaselineBytes is the heap bytes one idle-vNIC lifecycle
// allocated when every vNIC pre-sized two 4096-sample latency recorders
// and every sanitize materialized the pool chunks it zeroed (measured
// with go1.24; it now takes about 5.4 KB).
const idleLifecycleBaselineBytes = 70929

// TestIdleVNICLifecycleBytes guards the control-plane cost of a tenant
// that binds and leaves without sending: NewVirtualNIC + Bind + Unbind
// + Release on the pooled path. Churn runs create thousands of these;
// a vNIC that records nothing must not pay for recorder capacity.
func TestIdleVNICLifecycleBytes(t *testing.T) {
	pod, err := NewPod(Config{Hosts: 2, NICsPerHost: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := pod.Host("host0")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := pod.Host("host1")
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := NewVirtualNIC(h0, "idle", VNICConfig{})
			if _, err := v.Bind(h1, "host1-nic0"); err != nil {
				failed = err
				b.FailNow()
			}
			v.Unbind()
			v.Release()
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	got := res.AllocedBytesPerOp()
	t.Logf("idle vNIC lifecycle: %d B/op, %d allocs/op", got, res.AllocsPerOp())
	if limit := int64(idleLifecycleBaselineBytes / 2); got >= limit {
		t.Fatalf("idle vNIC lifecycle allocates %d B/op, want < %d (half of %d)",
			got, limit, idleLifecycleBaselineBytes)
	}
}
