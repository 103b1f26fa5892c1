// accelpool demonstrates the §5 "soft accelerator disaggregation"
// story: a specialized accelerator deployed at a 1:16 ratio — sixteen
// hosts share one device through the CXL pool instead of each rack slot
// carrying an idle accelerator. The pooled device is a VirtualSSD
// standing in for the accelerator (a computational-storage-style card):
// the pooling mechanism, device I/O buffers in CXL pool memory, is the
// same for any PCIe device class.
//
// The example measures per-host latency as the device is shared more
// widely, showing the utilization-vs-queueing tradeoff the pooling
// orchestrator navigates.
package main

import (
	"fmt"
	"log"

	"cxlpool/internal/core"
	"cxlpool/internal/metrics"
	"cxlpool/internal/sim"
	"cxlpool/internal/ssdsim"
)

func main() {
	const hosts = 16
	pod, err := core.NewPod(core.Config{
		Hosts:       hosts,
		NICsPerHost: 0,
		DeviceSize:  128 << 20,
		SharedSize:  64 << 20,
		Seed:        11,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One accelerator in the whole pod, attached to host0.
	owner, _ := pod.Host("host0")
	accel, err := owner.AddSSD("accel0", 1<<28)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 accelerator, %d hosts, ratio 1:%d\n", hosts, hosts)

	// Every host gets a virtual handle on the same physical device.
	handles := make([]*core.VirtualSSD, hosts)
	for i := 0; i < hosts; i++ {
		h, err := pod.Host(fmt.Sprintf("host%d", i))
		if err != nil {
			log.Fatal(err)
		}
		v := core.NewVirtualSSD(h, fmt.Sprintf("vaccel%d", i), core.VSSDConfig{Buffers: 8})
		if _, err := v.Bind(owner, accel); err != nil {
			log.Fatal(err)
		}
		handles[i] = v
	}

	// Offered load sweep: each host issues one 4K op every `gap`.
	for _, sharers := range []int{1, 4, 16} {
		lat := metrics.NewRecorder(4096)
		issued := 0
		start := pod.Engine.Now()
		end := start + 20*sim.Millisecond
		for i := 0; i < sharers; i++ {
			v := handles[i]
			var loop func(t sim.Time)
			loop = func(t sim.Time) {
				if t > end {
					return
				}
				_, err := v.Read(t, int64(issued%1024)*ssdsim.SectorSize, ssdsim.SectorSize,
					func(now sim.Time, _ []byte, err error) {
						if err == nil {
							lat.Record(float64(now - t))
						}
					})
				if err == nil {
					issued++
				}
				pod.Engine.At(t+400*sim.Microsecond, func() { loop(t + 400*sim.Microsecond) })
			}
			pod.Engine.At(start, func() { loop(start) })
		}
		if _, err := pod.Engine.RunUntil(end + 5*sim.Millisecond); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2d sharing host(s): %4d ops, p50=%.0fus p99=%.0fus\n",
			sharers, lat.Count(), lat.Percentile(50)/1e3, lat.Percentile(99)/1e3)
	}
	fmt.Println("one device serves the rack; without pooling, 15 of 16 accelerators would sit idle")
}
