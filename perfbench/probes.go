package main

import (
	"fmt"
	"runtime"
	"time"

	"cxlpool/internal/core"
	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/spine"
	"cxlpool/internal/topo"
)

// Each probe times one layer's public call on the workload's
// characteristic operation: an 8 KiB frame for the fleets, the 75 B
// and 9000 B payloads for UDP. A probe reports the median over
// probeBatches batches of the host nanoseconds per call.
const probeBatches = 15

const frameBytes = 8192

// timeBatches runs batch probeBatches times and returns the median
// ns per call; batch does n calls and returns only the time they took.
func timeBatches(n int, batch func(n int) (time.Duration, error)) (float64, error) {
	xs := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d)/float64(n))
	}
	return median(xs), nil
}

type probe struct {
	name string
	run  func() (float64, error)
}

var probes = []probe{
	{"sim.schedule_fire_ns", probeSchedule},
	{"mem.region_write_8k_ns", probeRegionWrite},
	{"cxl.interleave_write_8k_ns", func() (float64, error) { return probeInterleave(true) }},
	{"cxl.interleave_read_8k_ns", func() (float64, error) { return probeInterleave(false) }},
	{"cxl.portview_write_75b_ns", func() (float64, error) { return probePortView(75) }},
	{"cxl.portview_write_9000b_ns", func() (float64, error) { return probePortView(9000) }},
	{"cache.ntstore_8k_ns", probeNTStore},
	{"cache.invalidate_8k_ns", probeInvalidate},
	{"cache.readfresh_8k_ns", probeReadFresh},
	{"shm.send_poll_8k_ns", probeSendPoll},
	{"core.vnic_send_8k_ns", probeVNICSend},
	{"core.vnic_bind_unbind_ns", probeBindUnbind},
	{"nicsim.transmit_75b_ns", func() (float64, error) { return probeTransmit(75) }},
	{"nicsim.transmit_9000b_ns", func() (float64, error) { return probeTransmit(9000) }},
	{"spine.grant_pass_ns", probeGrantPass},
}

// runProbes times every probe whose layer the workload's operations
// used, each inside its own span.
func runProbes(acc *layerAcc, tr *tracer) error {
	counts := acc.callCounts()
	for _, p := range probes {
		if counts[p.name] == 0 {
			continue
		}
		// Start each probe on a collected heap, so the run's garbage is
		// not charged to it.
		runtime.GC()
		id := tr.begin("probe." + p.name)
		ns, err := p.run()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		acc.probes[p.name] = ns
	}
	return nil
}

func probeSchedule() (float64, error) {
	e := sim.NewEngine(1)
	fn := func() {}
	return timeBatches(4096, func(n int) (time.Duration, error) {
		t0 := e.Now()
		start := time.Now()
		for k := 0; k < n; k++ {
			e.At(t0+sim.Time(k+1), fn)
		}
		_, err := e.RunUntil(t0 + sim.Time(n+1))
		return time.Since(start), err
	})
}

// probeRegionWrite writes frames into fresh memory, so every write
// touches bytes the region has not materialized yet.
func probeRegionWrite() (float64, error) {
	buf := make([]byte, frameBytes)
	return timeBatches(256, func(n int) (time.Duration, error) {
		r := mem.NewRegion("probe", 0, n*frameBytes, cxl.DDRTiming(), sim.NewRand(1))
		start := time.Now()
		for k := 0; k < n; k++ {
			if _, err := r.WriteAt(0, mem.Address(k*frameBytes), buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

// probePod is a rack-shaped pod: host0 uses a NIC on host1 and sends to
// host2, all through the interleaved CXL pool.
func probePod() (*core.Pod, []*core.Host, error) {
	p, err := core.NewPod(core.Config{Hosts: 3, NICsPerHost: 2, SharedSize: 64 << 20, DeviceSize: 64 << 20,
		Seed: 1, AgentPollInterval: sim.Microsecond})
	if err != nil {
		return nil, nil, err
	}
	hosts := make([]*core.Host, 3)
	for i := range hosts {
		if hosts[i], err = p.Host(fmt.Sprintf("host%d", i)); err != nil {
			return nil, nil, err
		}
	}
	return p, hosts, nil
}

// frameRing carves ringFrames frame buffers from the pod's shared
// segment and writes each once, so later probes see materialized
// memory.
const ringFrames = 64

func frameRing(p *core.Pod) ([]mem.Address, error) {
	base, err := p.SharedAlloc(ringFrames * frameBytes)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameBytes)
	att, err := p.CXL.Attachment("host0")
	if err != nil {
		return nil, err
	}
	addrs := make([]mem.Address, ringFrames)
	for k := range addrs {
		addrs[k] = base + mem.Address(k*frameBytes)
		if _, err := att.Memory().WriteAt(0, addrs[k], buf); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

func probeInterleave(write bool) (float64, error) {
	p, _, err := probePod()
	if err != nil {
		return 0, err
	}
	addrs, err := frameRing(p)
	if err != nil {
		return 0, err
	}
	att, err := p.CXL.Attachment("host0")
	if err != nil {
		return 0, err
	}
	iv := att.Memory()
	buf := make([]byte, frameBytes)
	return timeBatches(ringFrames, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			var err error
			if write {
				_, err = iv.WriteAt(0, addrs[k%ringFrames], buf)
			} else {
				_, err = iv.ReadAt(0, addrs[k%ringFrames], buf)
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

func probePortView(payload int) (float64, error) {
	const slots = 256
	mhd := cxl.NewMHD("probe", 0, slots*nicsim.MTU, 2, sim.NewRand(1))
	v, err := mhd.Connect(cxl.X8Gen5)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, payload)
	for k := 0; k < slots; k++ {
		if _, err := v.WriteAt(0, mem.Address(k*nicsim.MTU), buf); err != nil {
			return 0, err
		}
	}
	return timeBatches(1024, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			if _, err := v.WriteAt(0, mem.Address(k%slots*nicsim.MTU), buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

func probeNTStore() (float64, error) {
	p, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	addrs, err := frameRing(p)
	if err != nil {
		return 0, err
	}
	c := hosts[0].Cache()
	buf := make([]byte, frameBytes)
	return timeBatches(ringFrames, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			if _, err := c.NTStore(0, addrs[k%ringFrames], buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

// probeInvalidate is the receive path's invalidation of a delivered
// frame before it streams the bytes: the frame's lines are not cached.
func probeInvalidate() (float64, error) {
	_, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	c := hosts[0].Cache()
	return timeBatches(ringFrames, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			c.InvalidateRange(mem.Address(k%ringFrames*frameBytes), frameBytes)
		}
		return time.Since(start), nil
	})
}

func probeReadFresh() (float64, error) {
	p, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	addrs, err := frameRing(p)
	if err != nil {
		return 0, err
	}
	c := hosts[0].Cache()
	buf := make([]byte, frameBytes)
	return timeBatches(ringFrames, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			if _, err := c.ReadFresh(0, addrs[k%ringFrames], buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

// probeSendPoll is one frame's channel work: the vNIC moves a frame as
// a 48 B descriptor, sent by one host and polled by another.
func probeSendPoll() (float64, error) {
	p, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	ch, err := p.NewChannel(256)
	if err != nil {
		return 0, err
	}
	tx := ch.NewSender(hosts[0].Cache())
	rx := ch.NewReceiver(hosts[1].Cache())
	msg := make([]byte, 48)
	scratch := make([]byte, 0, ch.MaxPayload())
	var now sim.Time
	return timeBatches(1024, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			d, err := tx.Send(now, msg)
			if err != nil {
				return 0, err
			}
			now += d
			_, d, ok, err := rx.PollInto(now, scratch[:0])
			if err != nil || !ok {
				return 0, fmt.Errorf("poll: ok=%v err=%v", ok, err)
			}
			now += d
		}
		return time.Since(start), nil
	})
}

// probeVNICSend times the pooled send path of one frame (host0's vNIC
// on host1's NIC); the engine drains the datapath between batches,
// outside the timed part.
func probeVNICSend() (float64, error) {
	p, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	v := core.NewVirtualNIC(hosts[0], "probe-tx", core.VNICConfig{BufSize: frameBytes + 1024})
	if _, err := v.Bind(hosts[1], "host1-nic0"); err != nil {
		return 0, err
	}
	sink := core.NewVirtualNIC(hosts[2], "probe-rx", core.VNICConfig{BufSize: frameBytes + 1024, RxBuffers: 256})
	if _, err := sink.Bind(hosts[2], "host2-nic0"); err != nil {
		return 0, err
	}
	buf := make([]byte, frameBytes)
	var now sim.Time
	return timeBatches(32, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			d, err := v.Send(now, "host2-nic0", buf)
			if err != nil {
				return 0, err
			}
			now += d
		}
		el := time.Since(start)
		now += sim.Millisecond
		_, err := p.Engine.RunUntil(now)
		return el, err
	})
}

func probeBindUnbind() (float64, error) {
	p, hosts, err := probePod()
	if err != nil {
		return 0, err
	}
	v := core.NewVirtualNIC(hosts[0], "probe-bind", core.VNICConfig{})
	var now sim.Time
	return timeBatches(64, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			if _, err := v.Bind(hosts[1], "host1-nic1"); err != nil {
				return 0, err
			}
			v.Unbind()
		}
		el := time.Since(start)
		// Let the agents compact the dead channel services.
		now += 10 * sim.Microsecond
		_, err := p.Engine.RunUntil(now)
		return el, err
	})
}

// sinkPort accepts frames and drops them; the fabric recycles them.
type sinkPort struct{}

func (sinkPort) FromWire(sim.Time, *netsim.Packet) {}

func probeTransmit(payload int) (float64, error) {
	engine := sim.NewEngine(1)
	fabric := netsim.NewFabric("probe", engine)
	nic := nicsim.New("tx", nicsim.Config{})
	nic.AttachFabric(fabric)
	if err := fabric.Attach("tx", nic.LineRate(), nic); err != nil {
		return 0, err
	}
	if err := fabric.Attach("rx", nic.LineRate(), sinkPort{}); err != nil {
		return 0, err
	}
	const slots = 64
	region := mem.NewRegion("probe", 0, slots*nicsim.MTU, cxl.DDRTiming(), sim.NewRand(1))
	buf := make([]byte, payload)
	for k := 0; k < slots; k++ {
		if _, err := region.WriteAt(0, mem.Address(k*nicsim.MTU), buf); err != nil {
			return 0, err
		}
	}
	nic.AttachHostMemory(region)
	var now sim.Time
	return timeBatches(slots, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			d, err := nic.Transmit(now, mem.Address(k%slots*nicsim.MTU), payload, "rx", now)
			if err != nil {
				return 0, err
			}
			now += d
		}
		el := time.Since(start)
		_, err := engine.RunUntil(now + sim.Millisecond)
		now += sim.Millisecond
		return el, err
	})
}

// probeGrantPass is the fleet's spine grant pass: spilled flows laid on
// a 4:1 oversubscribed 2x2 fleet's uplinks, granted, and closed.
func probeGrantPass() (float64, error) {
	t, err := topo.MultiRow(2, 2, topo.RackSpec{})
	if err != nil {
		return 0, err
	}
	net := spine.New(t, spine.Config{Oversub: 4})
	flows := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}}
	return timeBatches(1024, func(n int) (time.Duration, error) {
		start := time.Now()
		for k := 0; k < n; k++ {
			net.BeginFlows()
			for _, f := range flows {
				net.AddFlow(f[0], f[1], 40)
			}
			for _, f := range flows {
				net.GrantRate(f[0], f[1], 40)
			}
			net.CloseFlows()
		}
		return time.Since(start), nil
	})
}
