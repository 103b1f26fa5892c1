// Command perfbench is the repository benchmark. It drives the
// simulator only through public entry points (churn.Generate,
// faults.Random, cluster.New, Cluster.RunEpoch, stack.RunUDPBench and
// the per-layer calls in probes.go), times every operation from
// outside, checks every operation's output, and prints one JSON result
// line:
//
//	perfbench --workload fleet_hotspot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 every episode runs twice, once plain and once with spans
// around every call into a layer and each layer's public counters read
// at the same boundaries; then the per-layer probes run, and the result
// holds the per-layer metrics. The spans are written to
// .bench_build/traces/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// episode is one freshly built instance of a workload. Operation 0 is
// the warm-up (epoch 0's initial placement, or the first RunUDPBench
// call) and counts toward set-up time; operations 1..ops()-1 are
// timed.
type episode interface {
	ops() int
	// op runs operation i; tr is nil in untraced runs.
	op(i int, tr *tracer) error
	// check verifies operation i's output after it ran.
	check(i int) error
	// active reports whether operation i moved or admitted a tenant.
	active(i int) bool
	// sample reads layer counters after operation i (traced runs).
	sample(i int, tr *tracer)
	// finish folds the episode's statistics into the digest and, in
	// traced runs, into the per-layer accumulator.
	finish(d hash.Hash, acc *layerAcc, tr *tracer) error
}

type scenario interface {
	// episodes is how many episodes a run of the given length makes.
	// It depends only on its argument, so the simulated work of a run
	// is a pure function of the seed and the length.
	episodes(seconds int) int
	// setup builds an episode from its seed.
	setup(seed int64, tr *tracer) (episode, error)
}

func scenarioByName(name string) (scenario, error) {
	switch name {
	case wFleet:
		return fleetHotspot{}, nil
	case wChurn:
		return churnFaults{}, nil
	case wUDP:
		return udpBuffers{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// episodeSeed derives episode ep's seed from the run seed.
func episodeSeed(seed int64, ep int) int64 {
	return seed*0x9E3779B1 + int64(ep)*7919 + 1
}

// loopResult is what one pass over a run's episodes measured. The
// host times are raw; the scaled* ones are scaled to the reference
// host speed (hostspeed.go).
type loopResult struct {
	setupS       []float64
	opMs         []float64
	active       []bool
	runS         float64
	refMs        []float64 // reference passes
	scaledSetupS []float64
	scaledOpMs   []float64
	scaledRunS   float64
	sampleS      float64 // traced runs: time spent reading counters
	peakRSSMB    []float64
	allocBytes   uint64
	gcCycles     uint64
	gcPauseNs    uint64
	attempted    int
	failed       int
	firstErr     error
	digest       string
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// pass accumulates one sweep over a run's episodes: untraced, or
// traced with its spans and layer counters.
type pass struct {
	tr  *tracer
	acc *layerAcc
	d   hash.Hash
	ops int // operation ids handed out so far
	loopResult
}

func newPass(tr *tracer, acc *layerAcc) *pass {
	return &pass{tr: tr, acc: acc, d: sha256.New()}
}

// episode runs episode ep of a run into the pass.
func (p *pass) episode(w scenario, seed int64, ep int) error {
	r, tr := &p.loopResult, p.tr
	// Each episode starts from a collected heap handed back to the OS,
	// so one episode's garbage neither taxes the next one's operations
	// nor counts toward its resident peak.
	debug.FreeOSMemory()
	ref := newRefLoop()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	setupID := tr.begin("setup")
	t0 := time.Now()
	e, err := w.setup(episodeSeed(seed, ep), tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	firstOp := len(r.opMs)
	var refSum time.Duration
	for i := 0; i < e.ops(); i++ {
		tr.setOp(p.ops)
		p.ops++
		a0 := heapAllocs()
		start := time.Now()
		err := e.op(i, tr)
		el := time.Since(start)
		a1 := heapAllocs()
		if i == 0 {
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
			tr.end(setupID)
		} else {
			r.opMs = append(r.opMs, float64(el)/1e6)
			r.runS += el.Seconds()
			r.allocBytes += a1 - a0
		}
		refTime := ref.sample()
		refSum += refTime
		r.refMs = append(r.refMs, float64(refTime)/1e6)
		r.attempted++
		if err == nil {
			err = e.check(i)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("episode %d op %d: %w", ep, i, err)
			}
		}
		if i > 0 {
			r.active = append(r.active, e.active(i))
		}
		if i == e.ops()-1 {
			r.peakRSSMB = append(r.peakRSSMB, peakRSSMB())
		}
		if tr != nil {
			start := time.Now()
			e.sample(i, tr)
			r.sampleS += time.Since(start).Seconds()
		}
	}
	tr.setOp(-1)
	scale := float64(refNominal) * float64(e.ops()) / float64(refSum)
	r.scaledSetupS = append(r.scaledSetupS, r.setupS[len(r.setupS)-1]*scale)
	for _, ms := range r.opMs[firstOp:] {
		r.scaledOpMs = append(r.scaledOpMs, ms*scale)
		r.scaledRunS += ms * scale / 1e3
	}
	runtime.ReadMemStats(&ms1)
	r.gcCycles += uint64(ms1.NumGC - ms0.NumGC)
	r.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	return e.finish(p.d, p.acc, tr)
}

// runPasses makes every pass over each episode in turn, alternating
// which pass goes first, so that drift in the host's speed during the
// run falls on all passes alike.
func runPasses(w scenario, seed int64, episodes int, ps ...*pass) error {
	for ep := 0; ep < episodes; ep++ {
		for k := range ps {
			if err := ps[(k+ep)%len(ps)].episode(w, seed, ep); err != nil {
				return fmt.Errorf("episode %d: %w", ep, err)
			}
		}
	}
	for _, p := range ps {
		p.digest = hex.EncodeToString(p.d.Sum(nil))
	}
	return nil
}

// quantile is linear interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident size, so each episode's peak is its own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last reset,
// or since the process started where the kernel cannot reset it.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					return v / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func endToEndMetrics(r loopResult) map[string]metricValue {
	v := map[string]float64{
		"setup_s":     median(r.scaledSetupS),
		"run_s":       r.scaledRunS,
		"op_p50_ms":   quantile(r.scaledOpMs, 0.5),
		"op_p90_ms":   quantile(r.scaledOpMs, 0.9),
		"alloc_mb":    float64(r.allocBytes) / 1e6,
		"peak_rss_mb": median(r.peakRSSMB),
		"ok_ratio":    float64(r.attempted-r.failed) / float64(r.attempted),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = metricValue{v[m.Name], m.Unit}
	}
	return out
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal run length; sets the operation count")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("--seconds %d outside 1..60", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// run makes one benchmark run and returns its result line and the
// untraced pass.
func run(o options) (result, loopResult, error) {
	w, err := scenarioByName(o.workload)
	if err != nil {
		return result{}, loopResult{}, err
	}
	base := newPass(nil, nil)
	if o.trace == 0 {
		if err := runPasses(w, o.seed, w.episodes(o.seconds), base); err != nil {
			return result{}, loopResult{}, err
		}
		reportCheck("check failed:", base.firstErr)
		res := result{Correct: base.failed == 0, Attempted: base.attempted, Failed: base.failed,
			Metrics: endToEndMetrics(base.loopResult)}
		return res, base.loopResult, nil
	}
	tr, acc := newTracer(), newLayerAcc()
	traced := newPass(tr, acc)
	// Each episode is made twice, so the traced run makes half as many
	// to take about as long as an untraced one.
	if err := runPasses(w, o.seed, max(1, w.episodes(o.seconds)/2), base, traced); err != nil {
		return result{}, loopResult{}, err
	}
	reportCheck("check failed:", base.firstErr)
	reportCheck("check failed (traced):", traced.firstErr)
	res := result{Attempted: base.attempted + traced.attempted, Failed: base.failed + traced.failed}
	// Tracing must not perturb the simulation.
	same := traced.digest == base.digest
	if !same {
		fmt.Fprintln(os.Stderr, "traced digest differs from untraced digest")
	}
	res.Correct = res.Failed == 0 && same
	if err := runProbes(acc, tr); err != nil {
		return result{}, loopResult{}, err
	}
	vals := acc.metrics(base.loopResult, traced.loopResult, tr)
	res.Metrics = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	tf := traceFile{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Digest: base.digest,
		Note: "est_share.* multiply a probe's ns per call by the workload's matching call count and divide by run_s; " +
			"they are estimates until spans inside the program exist",
		Layers:    layerTable(),
		Metrics:   vals,
		SelfTimes: tr.selfTimes(),
		Spans:     tr.spans,
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(path, tf); err != nil {
		return result{}, loopResult{}, fmt.Errorf("writing trace: %w", err)
	}
	return res, base.loopResult, nil
}

func reportCheck(prefix string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, prefix, err)
	}
}

func main() {
	// One process on one processor: the cluster already simulates its
	// racks with one worker, and the garbage collector then shares that
	// processor instead of a second, busier one, so the figures measure
	// the simulator rather than the host's scheduler.
	runtime.GOMAXPROCS(1)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	res, base, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("raw host time setup_s=%.4f run_s=%.4f op_p50_ms=%.4f op_p90_ms=%.4f reference pass p50_ms=%.4f p10_ms=%.4f\n",
		median(base.setupS), base.runS, quantile(base.opMs, 0.5), quantile(base.opMs, 0.9),
		median(base.refMs), quantile(base.refMs, 0.1))
	fmt.Printf("runtime alloc_mb=%.3f gc_cycles=%d gc_pause_ms=%.3f\n",
		float64(base.allocBytes)/1e6, base.gcCycles, float64(base.gcPauseNs)/1e6)
	fmt.Printf("digest %s seed=%d seconds=%d %s\n", o.workload, o.seed, o.seconds, base.digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
