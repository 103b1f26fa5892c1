package main

import (
	"fmt"
	"hash"
	"os"
	"time"

	"cxlpool/internal/cxl"
	"cxlpool/internal/mem"
	"cxlpool/internal/netsim"
	"cxlpool/internal/nicsim"
	"cxlpool/internal/sim"
	"cxlpool/internal/stack"
)

// udpBuffers is the paper's Figure 3: the UDP echo microbenchmark at
// each payload in both buffer placements, at about half of each
// payload's saturating load, with 1 ms simulated windows.
type udpBuffers struct{}

// udpRounds is one episode: rounds of one call per Figure 3 point,
// after the warm-up call.
const udpRounds = 10

var udpLoadMOPS = map[int]float64{75: 2.0, 1500: 1.5, 9000: 0.6}

func (udpBuffers) episodes(seconds int) int { return max(1, seconds*2/3) }

func (udpBuffers) setup(seed int64, _ *tracer) (episode, error) {
	return &udpEpisode{seed: seed}, nil
}

type udpEpisode struct {
	seed    int64
	results []*stack.UDPBenchResult
	callNs  []int64
	replica []udpReplica
	// replicaErr notes a replica whose result differs from the
	// RunUDPBench call it mirrors; its counters are then unverified.
	replicaErr error
}

func (e *udpEpisode) ops() int { return 1 + udpRounds*len(stackCombos) }

// config is operation i's call: combo i mod 6 (the warm-up call is
// combo 0), seeded from the episode seed and the call index.
func (e *udpEpisode) config(i int) stack.UDPBenchConfig {
	c := stackCombos[i%len(stackCombos)]
	mode := stack.BufferDDR
	if c.Mode == "cxl" {
		mode = stack.BufferCXL
	}
	return stack.UDPBenchConfig{
		Payload:     c.Payload,
		OfferedMOPS: udpLoadMOPS[c.Payload],
		Duration:    sim.Millisecond,
		Mode:        mode,
		Seed:        e.seed*131 + int64(i),
	}
}

func (e *udpEpisode) op(i int, tr *tracer) error {
	id := tr.begin("stack.RunUDPBench")
	start := time.Now()
	res, err := stack.RunUDPBench(e.config(i))
	e.callNs = append(e.callNs, int64(time.Since(start)))
	tr.end(id)
	e.results = append(e.results, res)
	return err
}

func (e *udpEpisode) check(i int) error {
	r := e.results[i]
	if r.Sent == 0 || r.Responses > r.Sent {
		return fmt.Errorf("%w: %s sent %d responses %d", errCheck, r, r.Sent, r.Responses)
	}
	return nil
}

func (e *udpEpisode) active(int) bool { return false }

// sample runs the replica of the first round's calls (one per Figure 3
// point) to read the layer counters RunUDPBench keeps private.
func (e *udpEpisode) sample(i int, tr *tracer) {
	if i < 1 || i > len(stackCombos) {
		return
	}
	id := tr.begin("replica.udp")
	rep, err := replicaUDP(e.config(i))
	tr.end(id)
	if err == nil && rep.res != *e.results[i] {
		err = fmt.Errorf("replica %v differs from RunUDPBench %v", rep.res, *e.results[i])
	}
	if err != nil {
		if e.replicaErr == nil {
			e.replicaErr = err
		}
		return
	}
	tr.spans[id].Events = rep.events
	rep.combo = i % len(stackCombos)
	e.replica = append(e.replica, rep)
}

func (e *udpEpisode) finish(d hash.Hash, acc *layerAcc, tr *tracer) error {
	for _, r := range e.results {
		if r != nil {
			fmt.Fprintf(d, "%v\n", *r)
		}
	}
	if acc == nil {
		return nil
	}
	if e.replicaErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: layer counters unverified:", e.replicaErr)
	}
	for i, r := range e.results {
		if i == 0 || r == nil {
			continue
		}
		k := i % len(stackCombos)
		p := &acc.points[k]
		p.callMs = append(p.callMs, float64(e.callNs[i])/1e6)
		p.nsPerRequest = append(p.nsPerRequest, float64(e.callNs[i])/float64(r.Sent))
		p.simP50 = append(p.simP50, r.P50us)
		p.simP99 = append(p.simP99, r.P99us)
		p.mops = append(p.mops, r.AchievedMOPS)
		p.rxDrops += r.ServerRxDrops
		p.calls++
	}
	for _, rep := range e.replica {
		k := rep.combo
		acc.points[k].replicas++
		acc.points[k].rc.add(rep.rackCounters)
		acc.racks.add(rep.rackCounters)
		acc.replicaCalls++
	}
	return nil
}

// udpReplica is one RunUDPBench call rebuilt from the same public
// constructors, so that its engine, buffer memory, NICs and fabric can
// be read afterwards. Its result must equal the call it mirrors.
type udpReplica struct {
	combo int
	res   stack.UDPBenchResult
	rackCounters
}

// replicaUDP mirrors stack.RunUDPBench's wiring.
func replicaUDP(cfg stack.UDPBenchConfig) (udpReplica, error) {
	var out udpReplica
	const ringDepth = 512
	engine := sim.NewEngine(cfg.Seed)
	fabric := netsim.NewFabric("tor", engine)
	serverNIC := nicsim.New("server", nicsim.Config{})
	clientNIC := nicsim.New("client", nicsim.Config{})
	serverNIC.AttachFabric(fabric)
	clientNIC.AttachFabric(fabric)
	if err := fabric.Attach("server", serverNIC.LineRate(), serverNIC); err != nil {
		return out, err
	}
	if err := fabric.Attach("client", clientNIC.LineRate(), clientNIC); err != nil {
		return out, err
	}
	size := max((ringDepth*4+4096)*int(mem.AlignUp(mem.Address(cfg.Payload))), 1<<22)
	ddrTiming := cxl.DDRTiming()
	ddrTiming.Bandwidth *= 4
	var serverPool *stack.BufferPool
	var pool *mem.Region
	if cfg.Mode == stack.BufferCXL {
		mhd := cxl.NewMHD("pool", 0, size, 2, sim.NewRand(cfg.Seed+1))
		dmaView, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			return out, err
		}
		cpuView, err := mhd.Connect(cxl.X8Gen5)
		if err != nil {
			return out, err
		}
		serverPool = stack.NewBufferPool("cxl", cpuView, dmaView, 0, size)
		pool = mhd.Media()
	} else {
		ddr := mem.NewRegion("server-ddr", 0, size, ddrTiming, sim.NewRand(cfg.Seed+1))
		serverPool = stack.NewBufferPool("ddr", ddr, ddr, 0, size)
	}
	clientDDR := mem.NewRegion("client-ddr", 0, size, ddrTiming, sim.NewRand(cfg.Seed+2))
	clientPool := stack.NewBufferPool("client-ddr", clientDDR, clientDDR, 0, size)
	if _, err := stack.NewServer(engine, serverNIC, serverPool, cfg.Payload, ringDepth); err != nil {
		return out, err
	}
	client, err := stack.NewClient(engine, clientNIC, clientPool, "server", cfg.Payload, ringDepth, sim.NewRand(cfg.Seed+3))
	if err != nil {
		return out, err
	}
	client.Window = cfg.Duration
	client.Start(0, cfg.OfferedMOPS*1e6, cfg.Duration)
	engine.SetEventLimit(200_000_000)
	if _, err := engine.Run(); err != nil {
		return out, err
	}
	_, _, _, _, rxDrops := serverNIC.Stats()
	out.res = stack.UDPBenchResult{
		Mode:          cfg.Mode,
		Payload:       cfg.Payload,
		OfferedMOPS:   cfg.OfferedMOPS,
		AchievedMOPS:  float64(client.ResponsesInWindow()) / cfg.Duration.Seconds() / 1e6,
		P50us:         client.RTT.Percentile(50) / 1e3,
		P90us:         client.RTT.Percentile(90) / 1e3,
		P99us:         client.RTT.Percentile(99) / 1e3,
		Sent:          client.Sent(),
		Responses:     client.Responses(),
		ServerRxDrops: rxDrops,
	}
	out.events = engine.Processed()
	if pool != nil {
		_, _, out.poolRead, out.poolWritten = pool.Stats()
	}
	for _, n := range []*nicsim.NIC{serverNIC, clientNIC} {
		tx, _, _, _, drops := n.Stats()
		out.txPackets += tx
		out.rxDrops += drops
	}
	out.fabricDrops = fabric.Drops()
	return out, nil
}
