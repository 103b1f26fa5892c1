package cxlpool

import (
	"fmt"
	"testing"

	"cxlpool/internal/core"
	"cxlpool/internal/orch"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

// TestRackLifecycle is the full-system integration scenario: an
// 8-host pod pooling NICs and SSDs simultaneously, surviving a device
// failure, a load imbalance, and a maintenance hot-remove, while both
// device classes keep their data intact.
func TestRackLifecycle(t *testing.T) {
	pod, err := core.NewPod(core.Config{
		Hosts:             8,
		NICsPerHost:       1,
		DeviceSize:        128 << 20,
		SharedSize:        64 << 20,
		Seed:              99,
		AgentPollInterval: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := orch.New(pod, "host0", orch.LocalFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterAll(); err != nil {
		t.Fatal(err)
	}

	hosts := make([]*core.Host, 8)
	for i := range hosts {
		hosts[i], err = pod.Host(fmt.Sprintf("host%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}

	// --- NIC pooling: host1 sends to host7 via orchestrated vNIC. ---
	vnic, err := o.Allocate(hosts[1], "flow-nic", core.VNICConfig{
		BufSize: 2048, TxBuffers: 512, RxBuffers: 256})
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewVirtualNIC(hosts[7], "sink", core.VNICConfig{BufSize: 2048, RxBuffers: 512})
	if _, err := sink.Bind(hosts[7], "host7-nic0"); err != nil {
		t.Fatal(err)
	}
	var nicDelivered int
	sink.OnReceive(func(_ sim.Time, _ string, _ []byte) { nicDelivered++ })

	// --- SSD pooling: diskless host2 uses host3's NVMe. ---
	nvme, err := hosts[3].AddSSD("host3-ssd0", 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	vssd := core.NewVirtualSSD(hosts[2], "vssd", core.VSSDConfig{})
	if _, err := vssd.Bind(hosts[3], nvme); err != nil {
		t.Fatal(err)
	}

	if err := o.Start(); err != nil {
		t.Fatal(err)
	}

	// Drive both device classes concurrently.
	nicSent := 0
	payload := make([]byte, 1500)
	var pumpNIC func(ts sim.Time)
	pumpNIC = func(ts sim.Time) {
		if ts > 30*sim.Millisecond {
			return
		}
		if _, err := vnic.Send(ts, "host7-nic0", payload); err == nil {
			nicSent++
		}
		pod.Engine.At(ts+40*sim.Microsecond, func() { pumpNIC(ts + 40*sim.Microsecond) })
	}
	pod.Engine.At(0, func() { pumpNIC(0) })

	ssdOK := 0
	blob := make([]byte, ssdsim.SectorSize)
	for i := range blob {
		blob[i] = byte(i)
	}
	var pumpSSD func(ts sim.Time, i int)
	pumpSSD = func(ts sim.Time, i int) {
		if ts > 30*sim.Millisecond {
			return
		}
		_, _ = vssd.Write(ts, int64(i%64)*ssdsim.SectorSize, blob,
			func(_ sim.Time, _ []byte, err error) {
				if err == nil {
					ssdOK++
				}
			})
		pod.Engine.At(ts+300*sim.Microsecond, func() { pumpSSD(ts+300*sim.Microsecond, i+1) })
	}
	pod.Engine.At(0, func() { pumpSSD(0, 0) })

	// Mid-run: the NIC serving host1 fails; orchestrator must fail over
	// through the shared-memory control plane.
	pod.Engine.At(12*sim.Millisecond, func() { vnic.Phys().Fail() })

	if _, err := pod.Engine.RunUntil(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	// NIC flow survived the failure.
	failovers, _, sweeps := o.Stats()
	if sweeps == 0 || failovers != 1 {
		t.Fatalf("orchestrator: sweeps=%d failovers=%d", sweeps, failovers)
	}
	if nicDelivered < nicSent*8/10 {
		t.Fatalf("NIC flow: %d/%d through a device failure", nicDelivered, nicSent)
	}
	// SSD pipeline unaffected by the NIC failure.
	if ssdOK < 80 {
		t.Fatalf("SSD writes completed: %d", ssdOK)
	}

	// Data durability across the chaos: read back an SSD block.
	var verified bool
	now := pod.Engine.Now()
	if _, err := vssd.Read(now, 0, ssdsim.SectorSize, func(_ sim.Time, data []byte, err error) {
		if err != nil {
			t.Errorf("read back: %v", err)
			return
		}
		for i := range data {
			if data[i] != byte(i) {
				t.Errorf("SSD data corrupted at %d", i)
				return
			}
		}
		verified = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Engine.RunUntil(now + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !verified {
		t.Fatal("SSD verification never completed")
	}

	// Maintenance: drain and hot-remove host6 (owns no active bindings).
	if _, err := o.DrainHost("host6"); err != nil {
		t.Fatal(err)
	}
	if err := pod.DetachHost("host6"); err != nil {
		t.Fatal(err)
	}
	if len(pod.Hosts()) != 7 {
		t.Fatalf("hosts after maintenance = %d", len(pod.Hosts()))
	}

	// The pod still works end to end after the removal.
	now = pod.Engine.Now()
	before := nicDelivered
	if _, err := vnic.Send(now, "host7-nic0", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Engine.RunUntil(now + 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nicDelivered != before+1 {
		t.Fatal("pod broken after hot-remove")
	}
}

// TestRepeatedFailuresAlwaysConverge injects a sequence of device
// failures and asserts the orchestrator always lands every vNIC on a
// healthy device — a liveness property of the control plane.
func TestRepeatedFailuresAlwaysConverge(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pod, err := core.NewPod(core.Config{Hosts: 4, NICsPerHost: 1, Seed: seed, AgentPollInterval: 1000})
		if err != nil {
			t.Fatal(err)
		}
		o, err := orch.New(pod, "host0", orch.LeastUtilized)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.RegisterAll(); err != nil {
			t.Fatal(err)
		}
		h0, err := pod.Host("host0")
		if err != nil {
			t.Fatal(err)
		}
		v, err := o.Allocate(h0, "v", core.VNICConfig{BufSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		// Fail whatever device serves the vNIC, three times in a row.
		rng := sim.NewRand(seed)
		at := sim.Time(0)
		for k := 0; k < 3; k++ {
			at += sim.Duration(2_000_000 + rng.Int63n(2_000_000))
			pod.Engine.At(at, func() {
				if v.Phys() != nil && !v.Phys().Failed() {
					v.Phys().Fail()
				}
			})
		}
		if _, err := pod.Engine.RunUntil(at + 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if v.Phys() == nil || v.Phys().Failed() {
			t.Fatalf("seed %d: vNIC stranded on a failed device after 3 failures", seed)
		}
		failovers, _, _ := o.Stats()
		if failovers == 0 {
			t.Fatalf("seed %d: no failovers recorded", seed)
		}
	}
}
