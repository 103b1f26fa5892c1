package main

import "fmt"

// metricSpec is one reported metric: its name, unit, and which
// direction is better. BENCHMARK.json at the repository root lists
// the same specs; the tests keep the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// target names an end-to-end metric on one workload.
type target struct{ Workload, Metric string }

// layerMetric is a per-layer metric with the end-to-end metrics it is
// expected to move when its layer gets faster or slower (Moves), and
// the workloads whose end-to-end metrics should not move at all
// (Quiet). The predictions are written down before any optimisation,
// so a later change can be held to them.
type layerMetric struct {
	metricSpec
	Layer string
	Moves []target
	Quiet []string
}

const (
	wFleet = "fleet_hotspot"
	wChurn = "churn_faults"
	wUDP   = "udp_cxl_buffers"
)

// workloadSpec documents why a workload is in the benchmark.
type workloadSpec struct {
	Name, Why string
}

var workloads = []workloadSpec{
	{wFleet, "rack data plane (interleave, cache, shm, vNIC) plus the finite spine's flow ledger, on the fixed-population control-plane paths"},
	{wChurn, "control plane under churn and faults: admission, vNIC bind/unbind, sweep, repairs and policy; the spine's grant pass never runs"},
	{wUDP, "Figure 3: NIC DMA through pcie into CXL PortView buffers; never touches cache, shm, interleave, core or cluster"},
}

// endToEnd are the metrics a user of the simulator sees. An operation
// is one Cluster.RunEpoch or one stack.RunUDPBench call.
var endToEnd = []struct {
	metricSpec
	Bound float64
}{
	// Host timings are scaled to the reference speed (hostspeed.go),
	// but what the scaling misses and the spread of the seeds' inputs
	// remain, so they take the widest bound; allocation and resident
	// memory vary only with the seed's inputs.
	{metricSpec{"setup_s", "s", "lower"}, 0.25},
	{metricSpec{"run_s", "s", "lower"}, 0.25},
	{metricSpec{"op_p50_ms", "ms", "lower"}, 0.25},
	{metricSpec{"op_p90_ms", "ms", "lower"}, 0.25},
	{metricSpec{"alloc_mb", "MB", "lower"}, 0.2},
	{metricSpec{"peak_rss_mb", "MB", "lower"}, 0.2},
	{metricSpec{"ok_ratio", "ratio", "higher"}, 0.01},
}

func lm(layer, name, unit, better string, moves []target, quiet ...string) layerMetric {
	return layerMetric{metricSpec{name, unit, better}, layer, moves, quiet}
}

func on(metric string, ws ...string) []target {
	out := make([]target, len(ws))
	for i, w := range ws {
		out[i] = target{w, metric}
	}
	return out
}

// stackCombos are the Figure 3 points the UDP workload cycles through:
// both buffer placements at each of the paper's payloads.
var stackCombos = []struct {
	Mode    string
	Payload int
}{
	{"ddr", 75}, {"cxl", 75}, {"ddr", 1500}, {"cxl", 1500}, {"ddr", 9000}, {"cxl", 9000},
}

func stackMetricName(mode string, payload int, field string) string {
	return fmt.Sprintf("stack.%s_%d.%s", mode, payload, field)
}

// probeShares are the per-layer timing probes whose estimated share of
// run_s is reported as est_share.<probe>.
var probeShares = []string{
	"sim.schedule_fire_ns",
	"mem.region_write_8k_ns",
	"cxl.interleave_write_8k_ns", "cxl.interleave_read_8k_ns",
	"cxl.portview_write_75b_ns", "cxl.portview_write_9000b_ns",
	"cache.ntstore_8k_ns", "cache.invalidate_8k_ns",
	"shm.send_poll_8k_ns",
	"core.vnic_send_8k_ns", "core.vnic_bind_unbind_ns",
	"nicsim.transmit_75b_ns", "nicsim.transmit_9000b_ns",
	"spine.grant_pass_ns",
}

func shareName(probe string) string {
	return "est_share." + probe[:len(probe)-len("_ns")]
}

// perLayer is the traced run's metric set, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	all := on("op_p50_ms", wFleet, wChurn, wUDP)
	fleetP50 := on("op_p50_ms", wFleet)
	udpP50 := on("op_p50_ms", wUDP)
	churnRun := on("run_s", wChurn)
	ms := []layerMetric{
		lm("sim", "sim.events_per_op", "count", "lower", all),
		lm("sim", "sim.host_ns_per_event", "ns", "lower", all),
		lm("sim", "sim.schedule_fire_ns", "ns", "lower", all),

		lm("mem", "mem.pool_mb_written", "MB", "lower", append(on("alloc_mb", wFleet, wUDP), on("op_p50_ms", wFleet, wUDP)...)),
		lm("mem", "mem.pool_mb_read", "MB", "lower", on("op_p50_ms", wFleet, wUDP)),
		lm("mem", "mem.region_write_8k_ns", "ns", "lower", append(on("alloc_mb", wFleet, wUDP), on("op_p50_ms", wFleet, wUDP)...)),

		lm("cxl", "cxl.interleave_write_8k_ns", "ns", "lower", fleetP50, wUDP),
		lm("cxl", "cxl.interleave_read_8k_ns", "ns", "lower", fleetP50, wUDP),
		lm("cxl", "cxl.portview_write_75b_ns", "ns", "lower", udpP50),
		lm("cxl", "cxl.portview_write_9000b_ns", "ns", "lower", udpP50),

		lm("cache", "cache.hit_ratio", "ratio", "higher", fleetP50, wUDP),
		lm("cache", "cache.misses", "count", "lower", fleetP50, wUDP),
		lm("cache", "cache.writebacks", "count", "lower", fleetP50, wUDP),
		lm("cache", "cache.ntstore_8k_ns", "ns", "lower", fleetP50, wUDP),
		lm("cache", "cache.invalidate_8k_ns", "ns", "lower", fleetP50, wUDP),
		lm("cache", "cache.readfresh_8k_ns", "ns", "lower", fleetP50, wUDP),

		lm("shm", "shm.send_poll_8k_ns", "ns", "lower", fleetP50, wUDP),

		lm("core", "core.agent_polls", "count", "lower", fleetP50, wUDP),
		lm("core", "core.agent_useful_poll_ratio", "ratio", "higher", fleetP50, wUDP),
		lm("core", "core.vnic_send_8k_ns", "ns", "lower", fleetP50, wUDP),
		lm("core", "core.vnic_bind_unbind_ns", "ns", "lower", on("op_p50_ms", wChurn), wUDP),

		lm("nicsim", "nicsim.tx_packets", "count", "lower", udpP50),
		lm("nicsim", "nicsim.rx_drops", "count", "lower", udpP50),
		lm("netsim", "netsim.drops", "count", "lower", udpP50),
		lm("nicsim", "nicsim.transmit_75b_ns", "ns", "lower", udpP50),
		lm("nicsim", "nicsim.transmit_9000b_ns", "ns", "lower", udpP50),
	}
	udpBoth := append(on("op_p50_ms", wUDP), on("op_p90_ms", wUDP)...)
	for _, c := range stackCombos {
		for _, f := range []struct{ field, unit, better string }{
			{"call_ms", "ms", "lower"},
			{"host_ns_per_request", "ns", "lower"},
			{"sim_p50_us", "sim_us", "lower"},
			{"sim_p99_us", "sim_us", "lower"},
			{"achieved_mops", "Mops", "higher"},
			{"rx_drops", "count", "lower"},
		} {
			ms = append(ms, lm("stack", stackMetricName(c.Mode, c.Payload, f.field), f.unit, f.better, udpBoth))
		}
	}
	clusterMoves := append(on("run_s", wChurn), append(on("op_p90_ms", wChurn), on("alloc_mb", wChurn)...)...)
	ms = append(ms,
		lm("orch", "orch.migrations", "count", "lower", churnRun),
		lm("orch", "orch.sweeps", "count", "lower", churnRun),

		lm("cluster", "cluster.epoch_active_ms", "ms", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.epoch_quiet_ms", "ms", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.migrations", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.repatriations", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.max_migrations_per_epoch", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.migrations_per_live_tenant", "ratio", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.scan_per_live", "ratio", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.admitted", "count", "higher", clusterMoves, wFleet),
		lm("cluster", "cluster.rejected", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.retried", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.admit_ratio", "ratio", "higher", clusterMoves, wFleet),
		lm("cluster", "cluster.admit_sim_p99_us", "sim_us", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.policy_actions", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.policy_throttled", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.displaced", "count", "lower", clusterMoves, wFleet),
		lm("cluster", "cluster.delivered_over_offered", "ratio", "higher", clusterMoves, wFleet),

		lm("spine", "spine.transfers", "count", "lower", fleetP50, wChurn),
		lm("spine", "spine.wait_sim_ms", "sim_ms", "lower", fleetP50, wChurn),
		lm("spine", "spine.max_util", "ratio", "lower", fleetP50, wChurn),
		lm("spine", "spine.throttled", "count", "lower", fleetP50, wChurn),
		lm("spine", "spine.grant_pass_ns", "ns", "lower", fleetP50, wChurn),

		lm("setup", "churn.generate_ms", "ms", "lower", on("setup_s", wChurn)),
		lm("setup", "faults.schedule_ms", "ms", "lower", on("setup_s", wChurn)),
		lm("setup", "cluster.new_ms", "ms", "lower", on("setup_s", wFleet, wChurn)),

		lm("go", "go.gc_cycles", "count", "lower", append(on("alloc_mb", wFleet, wChurn, wUDP), on("run_s", wFleet, wChurn, wUDP)...)),
		lm("go", "go.gc_pause_ms", "ms", "lower", on("run_s", wFleet, wChurn, wUDP)),

		// The overhead is the traced run_s minus the untraced one.
		lm("trace", "trace.overhead_s", "s", "lower", on("run_s", wFleet, wChurn, wUDP)),
	)
	for _, p := range probeShares {
		for _, m := range ms {
			if m.Name == p {
				ms = append(ms, lm(m.Layer, shareName(p), "ratio", "lower", m.Moves, m.Quiet...))
				break
			}
		}
	}
	return ms
}
