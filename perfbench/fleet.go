package main

import (
	"errors"
	"fmt"
	"hash"

	"cxlpool/internal/churn"
	"cxlpool/internal/cluster"
	"cxlpool/internal/faults"
	"cxlpool/internal/sim"
	"cxlpool/internal/topo"
	"cxlpool/internal/workload"
)

// fleetHotspot is the data-plane workload: a 2x2 federated fleet
// under a rotating 12x hotspot, behind a 4:1 oversubscribed spine.
// There is no churn, no fault schedule and no policy, so the cluster
// runs its fixed-population paths.
type fleetHotspot struct{}

// fleetEpochs is one episode: the warm-up epoch and eight more, in
// which the hotspot sits on rack 0, moves to rack 1 and then to rack 2.
// Tenant demands are drawn per episode and most of a run's cost varies
// with them, so a run makes many short episodes rather than a few full
// rotations: its figures then average over many draws.
const fleetEpochs = 1 + 8

func (fleetHotspot) episodes(seconds int) int { return max(1, seconds*6/5) }

func (fleetHotspot) setup(seed int64, tr *tracer) (episode, error) {
	var t *topo.Topology
	err := tr.wrap("topo.MultiRow", func() (err error) {
		t, err = topo.MultiRow(2, 2, topo.RackSpec{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return newClusterEpisode(tr, fleetEpochs, nil, cluster.Config{
		Topo:           t,
		TenantsPerRack: 4,
		Seed:           seed,
		Epoch:          sim.Millisecond,
		Federate:       true,
		Skew:           workload.RackSkew{HotFactor: 12, Period: 4},
		Workers:        1,
		Oversub:        4,
	})
}

// churnFaults is the control-plane workload: a 2x6 fleet on a
// non-blocking spine with 5 us epochs, bursty arrivals with Pareto
// lifetimes, autoscaled warm pools, and a random schedule of every
// fault class under the default remediation rules and one repair crew.
type churnFaults struct{}

// churnEpochs is one episode's length. Departed tenants accumulate in
// the cluster for the whole episode while slowcxl and cracfail faults
// keep striking, which is what exposes the pressure-relief cost: an
// epoch under a capacity-scaling fault can make as many migrations as
// there are tenants, departed ones included, so its cost grows with
// the square of the episode length. Episodes are kept short and many,
// so that a run's total is a mean over many such epochs rather than
// hostage to the one longest episode.
const churnEpochs = 32

func (churnFaults) episodes(seconds int) int { return max(1, seconds*11/3) }

func (churnFaults) setup(seed int64, tr *tracer) (episode, error) {
	var t *topo.Topology
	err := tr.wrap("topo.MultiRow", func() (err error) {
		t, err = topo.MultiRow(2, 6, topo.RackSpec{})
		return err
	})
	if err != nil {
		return nil, err
	}
	var trace *churn.Trace
	err = tr.wrap("churn.Generate", func() (err error) {
		trace, err = churn.Generate(churn.GenConfig{
			Epochs:   churnEpochs,
			Racks:    t.RackCount(),
			Arrivals: churn.ArrivalsBursty,
			Rate:     16,
			Lifetime: churn.LifePareto,
			MeanLife: 8,
			Seed:     seed,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var sched *faults.Schedule
	err = tr.wrap("faults.Random", func() (err error) {
		sched, err = faults.Random(faults.RandomConfig{
			Epochs:       churnEpochs,
			Racks:        t.RackCount(),
			Rows:         t.RowCount(),
			PDUs:         t.PDUCount(),
			HostsPerRack: t.Rack(0).Spec.Hosts,
			Rate:         0.3,
			Seed:         seed + 1,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return newClusterEpisode(tr, churnEpochs, trace, cluster.Config{
		Topo:      t,
		Seed:      seed + 2,
		Epoch:     5 * sim.Microsecond,
		Federate:  true,
		Skew:      workload.RackSkew{HotFactor: 1, Period: 1},
		Workers:   1,
		Churn:     trace,
		Autoscale: true,
		Faults:    sched,
		Remediate: cluster.DefaultRules(),
		Crews:     1,
	})
}

// clusterEpisode runs one fleet for a fixed number of epochs.
type clusterEpisode struct {
	c      *cluster.Cluster
	trace  *churn.Trace // nil for a fixed population
	epochs int
	stats  []cluster.EpochStats

	// Cumulative per-rack offered and delivered Gbps-epochs.
	offered, delivered []float64
	departed           map[string]bool
	// unplaced lists the live tenants without a rack after the last
	// epoch; displaced counts tenants that lost their placement.
	unplaced  []string
	displaced int
	// counters are the layer counters at the last operation boundary,
	// and opSpan the last operation's span (traced runs).
	counters rackCounters
	opSpan   int
}

func newClusterEpisode(tr *tracer, epochs int, trace *churn.Trace, cfg cluster.Config) (*clusterEpisode, error) {
	var c *cluster.Cluster
	err := tr.wrap("cluster.New", func() (err error) {
		c, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := len(c.Racks())
	return &clusterEpisode{
		c: c, trace: trace, epochs: epochs,
		offered: make([]float64, n), delivered: make([]float64, n),
		departed: map[string]bool{},
	}, nil
}

func (e *clusterEpisode) ops() int { return e.epochs }

func (e *clusterEpisode) op(i int, tr *tracer) error {
	e.opSpan = tr.begin("cluster.RunEpoch")
	st, err := e.c.RunEpoch()
	tr.end(e.opSpan)
	e.stats = append(e.stats, st)
	return err
}

func (e *clusterEpisode) active(i int) bool {
	st := e.stats[i]
	return st.Migrations+st.Repatriations+st.Admitted > 0
}

var errCheck = errors.New("check failed")

func (e *clusterEpisode) check(i int) error {
	st := e.stats[i]
	for r := range e.offered {
		e.offered[r] += st.OfferedGbps[r]
		e.delivered[r] += st.DeliveredGbps[r]
		if e.delivered[r] > e.offered[r]*(1+1e-9)+1e-9 {
			return fmt.Errorf("%w: rack %d delivered %.6g > offered %.6g Gbps-epochs", errCheck, r, e.delivered[r], e.offered[r])
		}
	}
	if st.Admitted+st.Rejected != st.Arrivals+st.Retried {
		return fmt.Errorf("%w: admitted %d + rejected %d != arrivals %d + retries %d",
			errCheck, st.Admitted, st.Rejected, st.Arrivals, st.Retried)
	}
	// Tenants still unplaced after the last epoch must all re-enter the
	// router this epoch, unless they departed first.
	wantRetries := 0
	if e.trace != nil {
		for _, ev := range e.trace.At(i) {
			if ev.Op == churn.OpDepart {
				e.departed[ev.Tenant] = true
			}
		}
		for _, name := range e.unplaced {
			if !e.departed[name] {
				wantRetries++
			}
		}
	}
	e.unplaced = e.unplaced[:0]
	for _, t := range e.c.Tenants() {
		if t.Rack() < 0 && !e.departed[t.Name] {
			e.unplaced = append(e.unplaced, t.Name)
		}
	}
	// Every tenant unplaced now either lost an admission attempt this
	// epoch or was displaced by a failed move after it was placed.
	e.displaced += max(0, len(e.unplaced)-st.Rejected-st.Unplaced)
	if e.trace != nil {
		if st.Retried < wantRetries {
			return fmt.Errorf("%w: %d unplaced tenants but only %d retried", errCheck, wantRetries, st.Retried)
		}
		return nil
	}
	// A fixed population has no admission queue: every tenant is placed
	// unless a fault or a drain is in the way.
	if len(e.unplaced) > 0 && st.FaultsActive == 0 && !e.anyDraining() {
		return fmt.Errorf("%w: %d tenants unplaced with no active fault", errCheck, len(e.unplaced))
	}
	return nil
}

func (e *clusterEpisode) anyDraining() bool {
	for _, r := range e.c.Racks() {
		if r.Draining() || r.Dead() {
			return true
		}
	}
	return false
}

func (e *clusterEpisode) sample(i int, tr *tracer) {
	id := tr.begin("read.counters")
	now := readRacks(e.c)
	tr.end(id)
	tr.spans[e.opSpan].Events = now.events - e.counters.events
	e.counters = now
}

func (e *clusterEpisode) finish(d hash.Hash, acc *layerAcc, tr *tracer) error {
	for _, st := range e.stats {
		fmt.Fprintf(d, "%v\n", st)
	}
	if acc == nil {
		return nil
	}
	id := tr.begin("read.cluster")
	defer tr.end(id)
	acc.racks.add(e.counters)
	acc.displaced += e.displaced
	live := 0
	for _, st := range e.stats {
		acc.epochs++
		acc.migrations += st.Migrations
		acc.repatriations += st.Repatriations
		acc.maxMigrations = max(acc.maxMigrations, st.Migrations)
		acc.admitted += st.Admitted
		acc.rejected += st.Rejected
		acc.retried += st.Retried
		acc.departures += st.Departures
		acc.policyActions += st.PolicyActions
		acc.policyThrottled += st.PolicyThrottled
		acc.spineThrottled += st.SpineThrottled
		acc.spineMaxUtil = max(acc.spineMaxUtil, st.SpineMaxUtil)
		for r := range st.OfferedGbps {
			acc.offeredGbps += st.OfferedGbps[r]
			acc.deliveredGbps += st.DeliveredGbps[r]
		}
		live = st.Live
		if e.trace == nil {
			live = len(e.c.Tenants())
		}
		acc.liveEpochs += live
	}
	if live > 0 {
		acc.scanPerLive = append(acc.scanPerLive, float64(len(e.c.Tenants()))/float64(live))
	}
	if lat := e.c.AdmissionLatency(); lat.Count() > 0 {
		acc.admitP99us = append(acc.admitP99us, lat.Percentile(99)/1e3)
	}
	for _, l := range e.c.SpineLinks() {
		acc.spineTransfers += l.Transfers
		acc.spineWait += l.WaitTotal
	}
	for _, t := range e.c.Tenants() {
		_, sent := t.Traffic()
		acc.framesSent += sent / frameBytes
		acc.framesDelivered += e.c.Delivered(t) / frameBytes
	}
	return nil
}

// rackCounters are the public per-layer counters of every rack in a
// fleet, summed.
type rackCounters struct {
	events                          uint64
	poolWritten, poolRead           uint64
	cacheHits, cacheMisses, cacheWB uint64
	polls, forwarded, completed     uint64
	txPackets, rxDrops, fabricDrops uint64
	orchMigrations, orchSweeps      uint64
}

func (a *rackCounters) add(b rackCounters) {
	a.events += b.events
	a.poolWritten += b.poolWritten
	a.poolRead += b.poolRead
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.cacheWB += b.cacheWB
	a.polls += b.polls
	a.forwarded += b.forwarded
	a.completed += b.completed
	a.txPackets += b.txPackets
	a.rxDrops += b.rxDrops
	a.fabricDrops += b.fabricDrops
	a.orchMigrations += b.orchMigrations
	a.orchSweeps += b.orchSweeps
}

func readRacks(c *cluster.Cluster) rackCounters {
	var x rackCounters
	for _, r := range c.Racks() {
		p := r.Pod
		x.events += p.Engine.Processed()
		for _, d := range p.CXL.Devices() {
			_, _, read, written := d.Media().Stats()
			x.poolRead += read
			x.poolWritten += written
		}
		for _, name := range p.Hosts() {
			h, err := p.Host(name)
			if err != nil {
				continue
			}
			hits, misses, wb := h.Cache().Stats()
			x.cacheHits += hits
			x.cacheMisses += misses
			x.cacheWB += wb
			a := h.Agent()
			x.polls += a.Polls()
			x.forwarded += a.Forwarded()
			x.completed += a.Completed()
			for _, n := range h.NICs() {
				tx, _, _, _, drops := n.Stats()
				x.txPackets += tx
				x.rxDrops += drops
			}
		}
		x.fabricDrops += p.Fabric.Drops()
		_, mig, sweeps := r.Orch.Stats()
		x.orchMigrations += mig
		x.orchSweeps += sweeps
	}
	return x
}
