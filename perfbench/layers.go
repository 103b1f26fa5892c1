package main

import (
	"cxlpool/internal/sim"
)

// layerAcc gathers a traced run's layer counters across episodes.
type layerAcc struct {
	racks rackCounters

	// Cluster view, summed over every epoch of every episode.
	epochs, migrations, repatriations, maxMigrations int
	admitted, rejected, retried, departures          int
	policyActions, policyThrottled, spineThrottled   int
	liveEpochs, displaced                            int
	spineMaxUtil, offeredGbps, deliveredGbps         float64
	scanPerLive, admitP99us                          []float64
	spineTransfers                                   uint64
	spineWait                                        sim.Duration
	framesSent, framesDelivered                      uint64

	// UDP view, one entry per Figure 3 point (stackCombos order).
	points       [6]udpPoint
	replicaCalls int

	probes map[string]float64
}

type udpPoint struct {
	callMs, nsPerRequest, simP50, simP99, mops []float64
	rxDrops                                    uint64
	calls, replicas                            int
	rc                                         rackCounters
}

func newLayerAcc() *layerAcc { return &layerAcc{probes: map[string]float64{}} }

// callCounts maps each timing probe to how many times the run's
// operations did what the probe measures, read from the layer
// counters. A probe whose count is zero is not run: the workload
// bypasses that layer.
func (a *layerAcc) callCounts() map[string]float64 {
	if a.replicaCalls > 0 {
		// UDP: the counters come from the replicated calls, scaled up
		// to every call of the run.
		count := func(keep func(mode string, payload int) bool, field func(rackCounters) uint64) float64 {
			var n float64
			for k, p := range a.points {
				if p.replicas > 0 && keep(stackCombos[k].Mode, stackCombos[k].Payload) {
					n += float64(field(p.rc)) / float64(p.replicas) * float64(p.calls)
				}
			}
			return n
		}
		all := func(string, int) bool { return true }
		payload := func(n int) func(string, int) bool {
			return func(_ string, p int) bool { return p == n }
		}
		cxlPayload := func(n int) func(string, int) bool {
			return func(m string, p int) bool { return m == "cxl" && p == n }
		}
		// A CXL-buffered echo writes each request into the pool twice:
		// the NIC's RX DMA and the response the stack prepares.
		requests := func(c rackCounters) uint64 { return c.txPackets / 2 }
		tx := func(c rackCounters) uint64 { return c.txPackets }
		return map[string]float64{
			"sim.schedule_fire_ns":        count(all, func(c rackCounters) uint64 { return c.events }),
			"mem.region_write_8k_ns":      count(all, func(c rackCounters) uint64 { return c.poolWritten }) / frameBytes,
			"cxl.portview_write_75b_ns":   2 * count(cxlPayload(75), requests),
			"cxl.portview_write_9000b_ns": 2 * count(cxlPayload(9000), requests),
			"nicsim.transmit_75b_ns":      count(payload(75), tx),
			"nicsim.transmit_9000b_ns":    count(payload(9000), tx),
		}
	}
	frames := float64(a.framesSent)
	var grants float64
	if a.spineMaxUtil > 0 {
		grants = float64(a.epochs)
	}
	return map[string]float64{
		"sim.schedule_fire_ns":       float64(a.racks.events),
		"mem.region_write_8k_ns":     float64(a.racks.poolWritten) / frameBytes,
		"cxl.interleave_write_8k_ns": frames,
		"cxl.interleave_read_8k_ns":  float64(a.racks.forwarded),
		"cache.ntstore_8k_ns":        frames,
		"cache.invalidate_8k_ns":     float64(a.framesDelivered),
		"cache.readfresh_8k_ns":      float64(a.framesDelivered),
		"shm.send_poll_8k_ns":        2 * float64(a.racks.forwarded),
		"core.vnic_send_8k_ns":       frames,
		"core.vnic_bind_unbind_ns":   float64(a.admitted + a.departures + a.migrations + a.repatriations),
		"nicsim.transmit_9000b_ns":   float64(a.racks.txPackets),
		"spine.grant_pass_ns":        grants,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func spanMedianMs(tr *tracer, name string) float64 {
	var xs []float64
	for i, s := range tr.spans {
		if s.Name == name {
			xs = append(xs, tr.durationMs(i))
		}
	}
	return median(xs)
}

// metrics computes every per-layer metric. Timings that the trace
// would inflate (host ns per event, epoch times) come from the
// untraced pass; counters and spans come from the traced one.
func (a *layerAcc) metrics(base, traced loopResult, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	c := a.racks
	eventsPerOp := ratio(float64(c.events), float64(traced.attempted))
	if a.replicaCalls > 0 {
		eventsPerOp = ratio(float64(c.events), float64(a.replicaCalls))
	}
	m["sim.events_per_op"] = eventsPerOp
	m["sim.host_ns_per_event"] = ratio(base.runS*1e9, eventsPerOp*float64(len(base.opMs)))
	m["mem.pool_mb_written"] = float64(c.poolWritten) / 1e6
	m["mem.pool_mb_read"] = float64(c.poolRead) / 1e6
	m["cache.hit_ratio"] = ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses))
	m["cache.misses"] = float64(c.cacheMisses)
	m["cache.writebacks"] = float64(c.cacheWB)
	m["core.agent_polls"] = float64(c.polls)
	m["core.agent_useful_poll_ratio"] = ratio(float64(c.forwarded), float64(c.polls))
	m["nicsim.tx_packets"] = float64(c.txPackets)
	m["nicsim.rx_drops"] = float64(c.rxDrops)
	m["netsim.drops"] = float64(c.fabricDrops)
	for k, p := range a.points {
		name := func(f string) string { return stackMetricName(stackCombos[k].Mode, stackCombos[k].Payload, f) }
		m[name("call_ms")] = median(p.callMs)
		m[name("host_ns_per_request")] = median(p.nsPerRequest)
		m[name("sim_p50_us")] = median(p.simP50)
		m[name("sim_p99_us")] = median(p.simP99)
		m[name("achieved_mops")] = median(p.mops)
		m[name("rx_drops")] = float64(p.rxDrops)
	}
	m["orch.migrations"] = float64(c.orchMigrations)
	m["orch.sweeps"] = float64(c.orchSweeps)

	var activeMs, quietMs []float64
	for i, ms := range base.opMs {
		if base.active[i] {
			activeMs = append(activeMs, ms)
		} else {
			quietMs = append(quietMs, ms)
		}
	}
	if a.epochs > 0 {
		m["cluster.epoch_active_ms"] = median(activeMs)
		m["cluster.epoch_quiet_ms"] = median(quietMs)
	}
	m["cluster.migrations"] = float64(a.migrations)
	m["cluster.repatriations"] = float64(a.repatriations)
	m["cluster.max_migrations_per_epoch"] = float64(a.maxMigrations)
	m["cluster.migrations_per_live_tenant"] = ratio(float64(a.migrations), float64(a.liveEpochs))
	m["cluster.scan_per_live"] = median(a.scanPerLive)
	m["cluster.admitted"] = float64(a.admitted)
	m["cluster.rejected"] = float64(a.rejected)
	m["cluster.retried"] = float64(a.retried)
	m["cluster.admit_ratio"] = ratio(float64(a.admitted), float64(a.admitted+a.rejected))
	m["cluster.admit_sim_p99_us"] = median(a.admitP99us)
	m["cluster.policy_actions"] = float64(a.policyActions)
	m["cluster.policy_throttled"] = float64(a.policyThrottled)
	m["cluster.displaced"] = float64(a.displaced)
	m["cluster.delivered_over_offered"] = ratio(a.deliveredGbps, a.offeredGbps)

	m["spine.transfers"] = float64(a.spineTransfers)
	m["spine.wait_sim_ms"] = float64(a.spineWait) / 1e6
	m["spine.max_util"] = a.spineMaxUtil
	m["spine.throttled"] = float64(a.spineThrottled)

	m["churn.generate_ms"] = spanMedianMs(tr, "churn.Generate")
	m["faults.schedule_ms"] = spanMedianMs(tr, "faults.Random")
	m["cluster.new_ms"] = spanMedianMs(tr, "cluster.New")
	m["go.gc_cycles"] = float64(base.gcCycles)
	m["go.gc_pause_ms"] = float64(base.gcPauseNs) / 1e6
	m["trace.overhead_s"] = traced.scaledRunS + traced.sampleS - base.scaledRunS

	counts := a.callCounts()
	for probe, ns := range a.probes {
		m[probe] = ns
	}
	for _, probe := range probeShares {
		m[shareName(probe)] = ratio(a.probes[probe]*counts[probe], base.runS*1e9)
	}
	return m
}
