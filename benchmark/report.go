package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
)

// metric names one reported number and its unit. BENCHMARK.json lists
// the same names, units and directions; the smoke test holds the two
// in step.
type metric struct {
	Name, Unit string
}

// endToEnd are the gated metrics a user of the simulator sees, reported
// with tracing off by every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_b_per_cycle", "B/cycle"},
}

// perLayer are the traced run's metrics. Every workload reports every
// one of them; a layer a workload never calls reads 0 there. Shares
// are of the workload's traced time: the simulated-cycle span for the
// single-run workloads, worker time for fig3-sweep, and client-observed
// job time for serve-mixed.
//
// The first two are the untraced pass's throughput and latency. A user
// sees them, but on a shared host their spread between runs exceeds
// any bound of 10% (README.md, "Bounds and calibration"), so they are
// reported here, ungated. op_p50_ms is the median time of the
// operation each workload repeats and its user waits for: a window of
// cycles, a pass over the whole grid, or a job served from the cache.
var perLayer = []metric{
	{"sim_cycles_per_s", "cycles/s"},
	{"op_p50_ms", "ms"},
	{"sideband.tick_frac", "frac"},
	{"congestion.tick_frac", "frac"},
	{"traffic.generate_frac", "frac"},
	{"sim.inject_frac", "frac"},
	{"router.step_frac", "frac"},
	{"sim.deliver_frac", "frac"},
	{"sim.sample_frac", "frac"},
	{"traffic.packets_generated", "count"},
	{"congestion.denial_ratio", "ratio"},
	{"congestion.throttled_cycle_frac", "frac"},
	{"router.flits_per_cycle", "flits/cycle"},
	{"router.recoveries", "count"},
	{"router.full_buffers_avg", "count"},
	{"stats.latency_samples", "count"},
	{"experiments.setup_frac", "frac"},
	{"experiments.run_frac", "frac"},
	{"experiments.idle_frac", "frac"},
	{"server.submit_frac", "frac"},
	{"server.queue_frac", "frac"},
	{"server.run_frac", "frac"},
	{"server.fetch_frac", "frac"},
	{"resultcache.get_frac", "frac"},
	{"resultcache.put_frac", "frac"},
	{"resultcache.hit_ratio", "ratio"},
	{"trace.unattributed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// maxUnattributed is the largest share of traced time the spans may
// leave unexplained before the traced pass counts as failed.
const maxUnattributed = 0.02

// host records where a report was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	// Sharded fabric stepping only engages with more than one P; on a
	// single-CPU host cube512-sharded measures the serial path.
	ShardedDispatch bool `json:"sharded_dispatch_can_engage"`
}

func hostInfo(seed int64) host {
	procs := runtime.GOMAXPROCS(0)
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		GOARCH: runtime.GOARCH, Seed: seed, ShardedDispatch: procs > 1,
	}
}

// report collects one workload run: metric values, human-readable
// detail lines, the operation tally and any correctness failures.
type report struct {
	workload  string
	values    map[string]float64
	lines     []string
	attempted int
	failed    int
	problems  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records a correctness failure. It counts as one failed
// operation, so a wrong output can never pass as a slow one.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// print writes the human-readable report, with a line for every metric
// measured, followed by the one-line JSON result, which carries the
// end-to-end metrics or, for a traced run, the per-layer metrics.
func (r *report) print(w io.Writer, h host, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	fmt.Fprintf(w, "# workload %s (trace %v)\n", r.workload, traced)
	hj, _ := json.Marshal(h)
	fmt.Fprintf(w, "host %s\n", hj)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
	for _, m := range append(endToEnd, perLayer...) {
		if v, ok := r.values[m.Name]; ok {
			fmt.Fprintf(w, "metric %-32s %.6g %s\n", m.Name, v, m.Unit)
		}
	}
	res := jsonResult{
		Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: make(map[string]jsonValue, len(set)),
	}
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			return fmt.Errorf("%s: end-to-end metric %s not measured", r.workload, m.Name)
		}
		res.Metrics[m.Name] = jsonValue{Value: v, Unit: m.Unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// quantile is one percentile a report line shows.
type quantile struct {
	name    string
	samples []float64
	q       float64
}

// percentiles notes each quantile on one line. A percentile with too
// few samples beyond it fails the report instead of being shown.
func (r *report) percentiles(label string, qs ...quantile) {
	line := label
	for _, q := range qs {
		v, err := percentile(q.samples, q.q)
		if err != nil {
			r.fail("%s: %v", q.name, err)
			continue
		}
		line += fmt.Sprintf(" %s %.4g", q.name, v)
	}
	r.note("%s", line)
}

// digestOf is a short content hash of v's JSON encoding.
func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest prints a workload's output digest and compares it with
// the one recorded for the default seed and run length. Other seeds
// and lengths have no recorded digest; their runs rely on the
// workload's own consistency checks.
func (r *report) checkDigest(o options, digest string) {
	recorded := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		r.fail("digests.json: %v", err)
		return
	}
	want, ok := recorded[r.workload]
	switch {
	case o.smoke || o.seed != defaultSeed || o.seconds != defaultSeconds || !ok:
		r.note("output_digest %s (no recorded digest for this seed and length)", digest)
	case digest != want:
		r.note("output_digest %s", digest)
		r.fail("output digest %s, recorded %s", digest, want)
	default:
		r.note("output_digest %s (matches recorded)", digest)
	}
}

var memSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}

// allocatedBytes returns the bytes allocated on the heap since start.
func allocatedBytes() uint64 {
	metrics.Read(memSamples[:1])
	return memSamples[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MB, less
// the host probe's own tables.
func liveHeapMB(probe *hostProbe) float64 {
	runtime.GC()
	metrics.Read(memSamples[1:])
	return (float64(memSamples[1].Value.Uint64()) - probe.bytes()) / 1e6
}
