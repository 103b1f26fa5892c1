package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"testing"

	"cxlpool/internal/cluster"
)

// inputs builds episode 0 of a workload from seed, runs its first ops
// operations, and returns a digest of everything generated from the
// seed: the churn trace and fault schedule where there are any, and
// the simulated statistics of the operations.
func inputs(t *testing.T, w scenario, seed int64, ops int) string {
	t.Helper()
	e, err := w.setup(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	if ce, ok := e.(*clusterEpisode); ok {
		if ce.trace != nil {
			fmt.Fprint(d, ce.trace.Text())
		}
		if cfg := ce.c.Config(); cfg.Faults != nil {
			fmt.Fprintf(d, "%v", cfg.Faults.Events())
		}
	}
	for i := 0; i < ops; i++ {
		if err := e.op(i, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.check(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.finish(d, nil, nil); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(d.Sum(nil))
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, ws := range workloads {
		t.Run(ws.Name, func(t *testing.T) {
			w, err := scenarioByName(ws.Name)
			if err != nil {
				t.Fatal(err)
			}
			a, b := inputs(t, w, 11, 4), inputs(t, w, 11, 4)
			if a != b {
				t.Fatalf("seed 11 gave two digests: %s, %s", a, b)
			}
			if c := inputs(t, w, 12, 4); c == a {
				t.Fatalf("seeds 11 and 12 gave the same digest %s", a)
			}
		})
	}
}

func TestEpisodeSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 10; seed++ {
		for ep := 0; ep < 64; ep++ {
			s := episodeSeed(seed, ep)
			if seen[s] {
				t.Fatalf("episode seed %d repeats (seed %d, episode %d)", s, seed, ep)
			}
			seen[s] = true
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func allSpecs() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		out = append(out, m.metricSpec)
	}
	for _, m := range perLayer {
		out = append(out, m.metricSpec)
	}
	return out
}

func TestMetricNamesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range allSpecs() {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

func TestEveryLayerMetricNamesExistingTargets(t *testing.T) {
	ws := map[string]bool{}
	for _, w := range workloads {
		ws[w.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Layer == "" {
			t.Errorf("%s has no layer", m.Name)
		}
		if len(m.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric", m.Name)
		}
		for _, tg := range m.Moves {
			if !ws[tg.Workload] || !e2e[tg.Metric] {
				t.Errorf("%s moves unknown %s:%s", m.Name, tg.Workload, tg.Metric)
			}
		}
		for _, w := range m.Quiet {
			if !ws[w] {
				t.Errorf("%s predicts no change on unknown workload %s", m.Name, w)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the
// repository root in step with the metrics this program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	var b struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: %+v, want %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != m.metricSpec {
			t.Errorf("per_layer %d: %+v, want %+v", i, b.PerLayer[i], m.metricSpec)
		}
	}
}

// TestTracedRunReportsEveryMetric runs each workload's shortest traced
// run and checks the result against the contract and the predicted
// bypasses: UDP never reaches cache, shm or core, and churn_faults
// never runs the spine's grant pass.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir())
	for _, ws := range workloads {
		t.Run(ws.Name, func(t *testing.T) {
			res, _, err := run(options{workload: ws.Name, seed: 3, seconds: 1, trace: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: %+v present=%v", m.Name, v, ok)
				}
			}
			val := func(name string) float64 { return res.Metrics[name].Value }
			switch ws.Name {
			case wUDP:
				for _, name := range []string{"cache.misses", "cache.ntstore_8k_ns", "shm.send_poll_8k_ns",
					"core.agent_polls", "core.vnic_send_8k_ns", "cxl.interleave_write_8k_ns"} {
					if val(name) != 0 {
						t.Errorf("%s = %g on %s, want 0", name, val(name), ws.Name)
					}
				}
			case wChurn:
				for _, name := range []string{"spine.max_util", "spine.throttled", "spine.wait_sim_ms", "spine.grant_pass_ns"} {
					if val(name) != 0 {
						t.Errorf("%s = %g on %s, want 0", name, val(name), ws.Name)
					}
				}
				if val("cluster.max_migrations_per_epoch") == 0 {
					t.Errorf("no migrations on %s", ws.Name)
				}
			case wFleet:
				if val("spine.max_util") == 0 || val("cache.misses") == 0 {
					t.Errorf("fleet did not reach the spine or the cache")
				}
			}
			if val("sim.events_per_op") == 0 {
				t.Errorf("no simulated events counted")
			}
		})
	}
}

// TestCheckFlagsBrokenEpochs feeds the check epochs whose statistics
// break the admission ledger or deliver more than was offered.
func TestCheckFlagsBrokenEpochs(t *testing.T) {
	e, err := fleetHotspot{}.setup(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ce := e.(*clusterEpisode)
	if err := ce.op(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ce.check(0); err != nil {
		t.Fatalf("healthy epoch failed its check: %v", err)
	}
	ledger := ce.stats[0]
	ledger.Admitted = 1
	overDelivered := ce.stats[0]
	overDelivered.DeliveredGbps = append([]float64(nil), overDelivered.DeliveredGbps...)
	overDelivered.DeliveredGbps[0] += 1e6
	for name, st := range map[string]cluster.EpochStats{"ledger": ledger, "delivered": overDelivered} {
		ce.stats = append(ce.stats[:1], st)
		if err := ce.check(1); !errors.Is(err, errCheck) {
			t.Errorf("%s: check returned %v, want errCheck", name, err)
		}
	}
}

// TestReferenceLoopAllocatesNothing keeps the host-speed reference out
// of reach of the program's heap and garbage collector.
func TestReferenceLoopAllocatesNothing(t *testing.T) {
	r := newRefLoop()
	if n := testing.AllocsPerRun(5, r.pass); n != 0 {
		t.Errorf("reference pass made %v allocations, want 0", n)
	}
}
