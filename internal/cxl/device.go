package cxl

import (
	"errors"
	"fmt"

	"cxlpool/internal/mem"
	"cxlpool/internal/sim"
)

// Errors returned by pool construction and access.
var (
	ErrNoPorts      = errors.New("cxl: device has no free ports")
	ErrBadPort      = errors.New("cxl: invalid port")
	ErrNotAttached  = errors.New("cxl: host not attached to pool")
	ErrPoolExceeded = errors.New("cxl: allocation exceeds pool capacity")
)

// Link models one CXL link: a bandwidth-limited, latency-adding channel
// between a host root port and a device port. Each direction is
// serialized independently in real hardware; for the access patterns in
// this repository (request/response pairs) a single busy pointer per
// direction is sufficient.
type Link struct {
	cfg    LinkConfig
	propag sim.Duration // per-crossing propagation/flit latency
	// Fluid queues per direction (see mem.Region.access for why fluid).
	backlogTx float64
	backlogRx float64
	drainTx   sim.Time
	drainRx   sim.Time
	bytesTx   uint64
	bytesRx   uint64
	congested uint64 // accesses that queued
}

// NewLink creates a link with the given shape. propagation is the
// one-way flit latency of the link itself (port + retimer + cable),
// folded into the idle latency constants when composing with media.
func NewLink(cfg LinkConfig, propagation sim.Duration) *Link {
	if cfg.Lanes <= 0 {
		panic("cxl: link with no lanes")
	}
	return &Link{cfg: cfg, propag: propagation}
}

// Config returns the link shape.
func (l *Link) Config() LinkConfig { return l.cfg }

// BytesMoved returns cumulative (tx, rx) byte counts.
func (l *Link) BytesMoved() (tx, rx uint64) { return l.bytesTx, l.bytesRx }

// CongestionEvents returns how many transfers had to queue.
func (l *Link) CongestionEvents() uint64 { return l.congested }

// fluid advances a fluid queue and returns the queueing delay for a new
// transfer of n bytes at time now.
func fluid(backlog *float64, drain *sim.Time, bw mem.GBps, now sim.Time, n int) sim.Duration {
	if now > *drain {
		*backlog -= float64(bw.Bytes(now - *drain))
		if *backlog < 0 {
			*backlog = 0
		}
		*drain = now
	}
	q := bw.TransferTime(int(*backlog))
	*backlog += float64(n)
	return q
}

// sendTime serializes n bytes in the host→device direction starting at
// now and returns the added delay (queueing + serialization + propagation).
func (l *Link) sendTime(now sim.Time, n int) sim.Duration {
	bw := l.cfg.Bandwidth()
	q := fluid(&l.backlogTx, &l.drainTx, bw, now, n)
	if q > 0 {
		l.congested++
	}
	l.bytesTx += uint64(n)
	return q + bw.TransferTime(n) + l.propag
}

// recvTime serializes n bytes in the device→host direction.
func (l *Link) recvTime(now sim.Time, n int) sim.Duration {
	bw := l.cfg.Bandwidth()
	q := fluid(&l.backlogRx, &l.drainRx, bw, now, n)
	if q > 0 {
		l.congested++
	}
	l.bytesRx += uint64(n)
	return q + bw.TransferTime(n) + l.propag
}

// MHD is a multi-headed CXL memory device: one media region exposed
// through up to MaxMHDPorts independent CXL ports, each connectable to a
// different host (§3). The media region's idle latencies already include
// one direct link crossing, matching how the paper reports end-to-end
// CXL load-to-use latency.
type MHD struct {
	name   string
	media  *mem.Region
	ports  []*Link // nil when unconnected
	failed bool
}

// ErrDeviceFailed is returned for accesses to a failed MHD.
var ErrDeviceFailed = errors.New("cxl: device failed")

// Fail marks the device failed; all accesses through any port error
// until Repair. Used by the §5 reliability analyses.
func (d *MHD) Fail() { d.failed = true }

// Repair clears a failure.
func (d *MHD) Repair() { d.failed = false }

// Failed reports the failure state.
func (d *MHD) Failed() bool { return d.failed }

// NewMHD creates an MHD with size bytes of media and the given port
// count, based at base in the shared pool address map.
func NewMHD(name string, base mem.Address, size, ports int, rng *sim.Rand) *MHD {
	if ports <= 0 || ports > MaxMHDPorts {
		panic(fmt.Sprintf("cxl: MHD %q with invalid port count %d (1..%d)", name, ports, MaxMHDPorts))
	}
	media := mem.NewRegion(name+"/media", base, size, mem.Timing{
		ReadLatency:  CXLIdleReadLatency,
		WriteLatency: CXLIdleWriteLatency,
		// Media bandwidth is typically provisioned to match aggregate
		// port bandwidth; per-port links are the binding constraint.
		Bandwidth: 0,
		Jitter:    12, // controller scheduling noise, keeps CDFs realistic
	}, rng)
	return &MHD{
		name:  name,
		media: media,
		ports: make([]*Link, ports),
	}
}

// Name returns the device name.
func (d *MHD) Name() string { return d.name }

// Base returns the device's base address in the pool map.
func (d *MHD) Base() mem.Address { return d.media.Base() }

// Size returns the media capacity in bytes.
func (d *MHD) Size() int { return d.media.Size() }

// Ports returns the total port count.
func (d *MHD) Ports() int { return len(d.ports) }

// FreePorts returns the number of unconnected ports.
func (d *MHD) FreePorts() int {
	n := 0
	for _, p := range d.ports {
		if p == nil {
			n++
		}
	}
	return n
}

// Media exposes the raw media region (timing included) for white-box
// tests and pool bookkeeping.
func (d *MHD) Media() *mem.Region { return d.media }

// Connect attaches a link to the first free port and returns a PortView:
// the device's memory as seen through that port. Each host gets its own
// PortView so per-host link contention is modeled separately.
func (d *MHD) Connect(cfg LinkConfig) (*PortView, error) {
	for i, p := range d.ports {
		if p == nil {
			// Propagation is part of the composed idle latency constant,
			// so the link itself adds only serialization + queueing.
			l := NewLink(cfg, 0)
			d.ports[i] = l
			return &PortView{dev: d, port: i, link: l}, nil
		}
	}
	return nil, fmt.Errorf("%w: %s has %d ports, all connected", ErrNoPorts, d.name, len(d.ports))
}

// Disconnect frees a port (host hot-remove, §5 "operational implications").
func (d *MHD) Disconnect(port int) error {
	if port < 0 || port >= len(d.ports) {
		return fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	if d.ports[port] == nil {
		return fmt.Errorf("%w: port %d not connected", ErrBadPort, port)
	}
	d.ports[port] = nil
	return nil
}

// PortView is an MHD's media seen through one port's link. It implements
// mem.Memory: reads cross the link twice (request + data return), writes
// once (posted).
type PortView struct {
	dev      *MHD
	port     int
	link     *Link
	detached bool
	// extra is additional fixed latency per access, used to model a CXL
	// switch on the path (SwitchedView).
	extra sim.Duration
}

// Device returns the underlying MHD.
func (v *PortView) Device() *MHD { return v.dev }

// Port returns the port index on the device.
func (v *PortView) Port() int { return v.port }

// Link returns the port's link for congestion inspection.
func (v *PortView) Link() *Link { return v.link }

// Detach marks the view unusable (hot-removed host). Subsequent accesses
// fail with ErrNotAttached.
func (v *PortView) Detach() error {
	if v.detached {
		return ErrNotAttached
	}
	v.detached = true
	return v.dev.Disconnect(v.port)
}

// Contains reports whether the device media covers [a, a+size).
func (v *PortView) Contains(a mem.Address, size int) bool {
	return v.dev.media.Contains(a, size)
}

// ReadAt reads through the port: request over the link, media access,
// data return over the link.
func (v *PortView) ReadAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if v.detached {
		return 0, ErrNotAttached
	}
	if v.dev.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, v.dev.name)
	}
	// Request flit: 64 B header-class transfer.
	d := v.link.sendTime(now, mem.CachelineSize)
	md, err := v.dev.media.ReadAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	d += md
	d += v.link.recvTime(now+d, len(buf))
	return d + v.extra, nil
}

// WriteAt writes through the port (posted write: data crosses the link,
// media latency covers acceptance).
func (v *PortView) WriteAt(now sim.Time, a mem.Address, buf []byte) (sim.Duration, error) {
	if v.detached {
		return 0, ErrNotAttached
	}
	if v.dev.failed {
		return 0, fmt.Errorf("%w: %s", ErrDeviceFailed, v.dev.name)
	}
	d := v.link.sendTime(now, len(buf))
	md, err := v.dev.media.WriteAt(now+d, a, buf)
	if err != nil {
		return 0, err
	}
	return d + md + v.extra, nil
}

var _ mem.Memory = (*PortView)(nil)
