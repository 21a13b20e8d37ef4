package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to inputs that finish in well under a
	// second, for the benchmark's own tests.
	tiny bool
	// out is the directory for span files, run records and checkpoints.
	out string
	// corrupt damages the first witness or schedule the gate inspects, so a
	// test can prove the gate is not vacuous.
	corrupt bool
}

// minSetups is how many times a run sets up, at least, so that setup_s is
// a median rather than a single sample.
const minSetups = 31

// workload is one named traffic or instance mix.
type workload struct {
	name string
	// clients is the number of concurrent callers; self times are
	// accounted against clients × wall.
	clients int
	// setup prepares one pass: inputs, reference models, servers, temp
	// dirs. It is timed as setup_s.
	setup func(r *run) (*stage, error)
}

// stage is one prepared pass.
type stage struct {
	work  func(p *pass) // timed: wall_s
	check func(p *pass) // the correctness gate, untimed
	close func()
}

// pass is one repetition of a workload's work.
type pass struct {
	idx    int
	traced bool
	root   int // pass span
	wall   time.Duration

	peakHeap uint64
	mallocs  uint64
	gcPause  time.Duration

	mu        sync.Mutex
	latencies map[string]time.Duration // per completed job id

	search     searchTotals
	commands   int // schedule commands projected
	violations int // simulation monitor violations

	// serve-mix
	requests, hits, coalesced, throttled, errors int
	missSearch, missOverhead                     []float64 // ms

	// durable-dfs
	snapWrites            int
	snapWrite, snapResume time.Duration
	snapBytes             int64
}

// job records one completed job's latency.
func (p *pass) job(id string, d time.Duration) {
	p.mu.Lock()
	p.latencies[id] = d
	p.mu.Unlock()
}

// searchTotals sums the engine counters of a pass's searches.
type searchTotals struct {
	explored, stored, transitions, peakWaiting int
	evictions, storeBytes, memBytes            int64
	zoneConstraints                            float64 // weighted by stored states
	zoneWeight                                 int
	traceLen                                   int
	searchTime                                 time.Duration
}

func (t *searchTotals) add(explored, stored, transitions, peakWaiting int, evictions, storeBytes, memBytes int64, avgZone float64, d time.Duration) {
	t.explored += explored
	t.stored += stored
	t.transitions += transitions
	t.peakWaiting = max(t.peakWaiting, peakWaiting)
	t.evictions += evictions
	t.storeBytes += storeBytes
	t.memBytes = max(t.memBytes, memBytes)
	if avgZone > 0 {
		t.zoneConstraints += avgZone * float64(stored)
		t.zoneWeight += stored
	}
	t.searchTime += d
}

// run collects everything one invocation measures.
type run struct {
	cfg     config
	tr      *tracer
	w       workload
	passes  []*pass
	setups  []float64 // seconds
	started time.Time

	attempted, failed int
	failures          []string
	corrupted         bool

	// Output quality over the first pass's schedules.
	horizonUnits, instrs float64
	batches              int
	// first pass's artifacts per job, to check later passes reproduce them
	firstOut map[string]string
	// per-process caches of expensive reference results
	cache map[string]any

	// serve-mix generator record
	generator *generatorRecord
}

// fail records a job that failed the gate, errored or was refused.
func (r *run) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// corruptNow reports, once per run, that the gate should damage the
// artifact it is about to check.
func (r *run) corruptNow() bool {
	if r.cfg.corrupt && !r.corrupted {
		r.corrupted = true
		return true
	}
	return false
}

// schedule records a schedule's quality on the first pass and checks that
// later passes reproduce the first pass's artifact for the same job.
func (r *run) schedule(p *pass, job string, horizonUnits float64, instrs, batches int, artifact string) {
	if p.idx == 0 {
		r.horizonUnits += horizonUnits
		r.instrs += float64(instrs)
		r.batches += batches
	}
	r.reproduces(job, artifact)
}

// reproduces checks that every pass yields the first pass's artifact for
// job: searches are sequential and must be deterministic.
func (r *run) reproduces(job, artifact string) bool {
	if first, ok := r.firstOut[job]; ok {
		if first != artifact {
			r.fail("%s: artifact differs from the first pass's", job)
			return false
		}
		return true
	}
	r.firstOut[job] = artifact
	return true
}

// execute runs passes of w until the next one would overrun the time
// budget (at least one; two when tracing, so that traced and untraced
// passes can be compared).
func execute(cfg config, w workload) *run {
	r := &run{cfg: cfg, tr: newTracer(cfg.trace), w: w, started: time.Now(),
		firstOut: map[string]string{}, cache: map[string]any{}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	for i := 0; ; i++ {
		t0 := time.Now()
		st := r.setup()
		if st == nil {
			break
		}
		p := &pass{idx: i, traced: cfg.trace && i%2 == 0, latencies: map[string]time.Duration{}}
		r.measure(p, st)
		r.passes = append(r.passes, p)
		last := time.Since(t0)
		if i+1 >= minPasses && time.Since(r.started)+last > budget {
			break
		}
	}
	for len(r.setups) < minSetups {
		st := r.setup()
		if st == nil {
			break
		}
		st.close()
	}
	return r
}

// setup times one set-up, starting from a collected heap; nil when it
// failed.
func (r *run) setup() *stage {
	runtime.GC()
	t0 := time.Now()
	st, err := r.w.setup(r)
	r.setups = append(r.setups, time.Since(t0).Seconds())
	if err != nil {
		r.attempted++
		r.fail("setup: %v", err)
		return nil
	}
	return st
}

// measure runs one prepared pass: the timed work with heap sampling and
// allocation counting, then the gate.
func (r *run) measure(p *pass, st *stage) {
	defer st.close()
	r.tr.on = p.traced
	r.tr.pass = p.idx
	r.tr.phase = phaseWork
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hs := startHeapSampler()
	p.root = r.tr.start(-1, benchLayer, "pass", "")
	t0 := time.Now()
	st.work(p)
	p.wall = time.Since(t0)
	r.tr.end(p.root)
	p.peakHeap = hs.stop()
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.tr.phase = phaseCheck
	st.check(p)
	r.tr.on = false
}

// heapSampler tracks the peak of the Go heap in use between start and
// stop, sampled from runtime/metrics every 2ms.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-t.C:
			case <-h.quit:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.done
}

// metric is one printed result.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the metrics a user of the system sees. Timings are
// medians over the run's passes, and latency percentiles are taken over the
// jobs of every pass together: on a shared machine other tenants slow single
// passes down, and a median over the whole run is steadier than any one
// pass. Every pass's wall time is printed as well.
func (r *run) endToEnd() []metric {
	var heaps, walls, rates, lat []float64
	for _, p := range r.passes {
		heaps = append(heaps, float64(p.peakHeap)/(1<<20))
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(len(p.latencies))/p.wall.Seconds())
		for _, d := range p.latencies {
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
	}
	perBatch := func(v float64) float64 {
		if r.batches == 0 {
			return 0
		}
		return v / float64(r.batches)
	}
	return []metric{
		{"wall_s", median(walls), "s"},
		{"setup_s", median(r.setups), "s"},
		{"peak_heap_mb", median(heaps), "MB"},
		{"jobs_per_s", median(rates), "1/s"},
		{"job_p50_ms", percentile(lat, 50), "ms"},
		{"job_p95_ms", percentile(lat, 95), "ms"},
		{"schedule_horizon", perBatch(r.horizonUnits), "tu/batch"},
		{"program_instrs", perBatch(r.instrs), "instr/batch"},
	}
}

// jobs is the number of completed jobs over every pass.
func (r *run) jobs() int {
	n := 0
	for _, p := range r.passes {
		n += len(p.latencies)
	}
	return n
}

// perLayer computes the traced run's layer metrics: medians over the
// traced passes for per-pass quantities, medians over every traced call
// for per-call times.
func (r *run) perLayer() []metric {
	var traced, untraced []*pass
	for _, p := range r.passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	over := func(f func(p *pass) float64) float64 {
		var v []float64
		for _, p := range traced {
			v = append(v, f(p))
		}
		return median(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	call := func(name string) float64 { return ms(r.tr.callMedian(name)) }
	wallOf := func(ps []*pass) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, p.wall.Seconds())
		}
		return median(v)
	}
	s := func(p *pass) *searchTotals { return &p.search }
	return []metric{
		{"dbm.avg_zone_constraints", over(func(p *pass) float64 {
			return ratio(s(p).zoneConstraints, float64(s(p).zoneWeight))
		}), "constraints"},
		{"dbm.bytes_per_state", over(func(p *pass) float64 { return ratio(float64(s(p).storeBytes), float64(s(p).stored)) }), "B"},
		{"mc.search_s", over(func(p *pass) float64 { return s(p).searchTime.Seconds() }), "s"},
		{"mc.states_per_s", over(func(p *pass) float64 { return ratio(float64(s(p).explored), s(p).searchTime.Seconds()) }), "1/s"},
		{"mc.allocs_per_state", over(func(p *pass) float64 { return ratio(float64(p.mallocs), float64(s(p).explored)) }), "count"},
		{"mc.gc_pause_ms", over(func(p *pass) float64 { return ms(p.gcPause) }), "ms"},
		{"mc.states_explored", over(func(p *pass) float64 { return float64(s(p).explored) }), "count"},
		{"mc.states_stored", over(func(p *pass) float64 { return float64(s(p).stored) }), "count"},
		{"mc.transitions", over(func(p *pass) float64 { return float64(s(p).transitions) }), "count"},
		{"mc.evictions", over(func(p *pass) float64 { return float64(s(p).evictions) }), "count"},
		{"mc.peak_waiting", over(func(p *pass) float64 { return float64(s(p).peakWaiting) }), "count"},
		{"mc.stored_per_transition", over(func(p *pass) float64 { return ratio(float64(s(p).stored), float64(s(p).transitions)) }), "ratio"},
		{"mc.store_bytes", over(func(p *pass) float64 { return float64(s(p).storeBytes) }), "B"},
		{"mc.mem_estimate_bytes", over(func(p *pass) float64 { return float64(s(p).memBytes) }), "B"},
		{"mc.mem_estimate_ratio", over(func(p *pass) float64 { return ratio(float64(s(p).memBytes), float64(p.peakHeap)) }), "ratio"},
		{"mc.concretize_ms", call(spanConcretize), "ms"},
		{"mc.trace_len", over(func(p *pass) float64 { return float64(s(p).traceLen) }), "count"},
		{"plant.build_ms", call(spanBuild), "ms"},
		{"schedule.project_ms", call(spanProject), "ms"},
		{"schedule.commands", over(func(p *pass) float64 { return float64(p.commands) }), "count"},
		{"synth.compile_ms", call(spanCompile), "ms"},
		{"sim.run_ms", call(spanSim), "ms"},
		{"sim.violations", over(func(p *pass) float64 { return float64(p.violations) }), "count"},
		{"snapshot.writes", over(func(p *pass) float64 { return float64(p.snapWrites) }), "count"},
		{"snapshot.write_ms", over(func(p *pass) float64 { return ms(p.snapWrite) }), "ms"},
		{"snapshot.bytes", over(func(p *pass) float64 { return float64(p.snapBytes) }), "B"},
		{"snapshot.load_ms", call(spanLoad), "ms"},
		{"snapshot.resume_ms", over(func(p *pass) float64 { return ms(p.snapResume) }), "ms"},
		{"serve.search_ms", over(func(p *pass) float64 { return median(p.missSearch) }), "ms"},
		{"serve.overhead_ms", over(func(p *pass) float64 { return median(p.missOverhead) }), "ms"},
		{"serve.cache_hit_share", over(func(p *pass) float64 { return ratio(float64(p.hits), float64(p.requests)) }), "ratio"},
		{"serve.coalesced", over(func(p *pass) float64 { return float64(p.coalesced) }), "count"},
		{"serve.throttled_429", over(func(p *pass) float64 { return float64(p.throttled) }), "count"},
		{"serve.errors", over(func(p *pass) float64 { return float64(p.errors) }), "count"},
		{"tadsl.parse_ms", call(spanParse), "ms"},
		{"tadsl.hash_ms", call(spanHash), "ms"},
		{"trace.overhead_s", wallOf(traced) - wallOf(untraced), "s"},
		{"trace.unattributed_s", over(func(p *pass) float64 { return r.tr.selfTimes(p.idx)[benchLayer].Seconds() }), "s"},
	}
}

// layerTable renders each layer's self time, the median over the traced
// passes, and its share of the time the workload's callers spent
// (clients × the pass span). With several clients, one finishes first and
// waits for the others: that time is idle.
func (r *run) layerTable() string {
	perLayer := map[string][]float64{}
	var capacity []float64
	for _, p := range r.passes {
		if !p.traced {
			continue
		}
		c := float64(r.w.clients) * r.tr.spans[p.root].dur().Seconds()
		idle := c
		for l, d := range r.tr.selfTimes(p.idx) {
			perLayer[l] = append(perLayer[l], d.Seconds())
			idle -= d.Seconds()
		}
		if r.w.clients > 1 {
			perLayer["idle"] = append(perLayer["idle"], idle)
		}
		capacity = append(capacity, c)
	}
	layers := make([]string, 0, len(perLayer))
	for l := range perLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	c := median(capacity)
	var b strings.Builder
	fmt.Fprintf(&b, "  layer self times over %d traced pass(es), %d client(s) × wall = %.4fs (%s = unattributed):\n",
		len(capacity), r.w.clients, c, benchLayer)
	for _, l := range layers {
		v := median(perLayer[l])
		fmt.Fprintf(&b, "    %-9s %10.4fs %7.2f%%\n", l, v, 100*v/c)
	}
	return b.String()
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks; 0 for an
// empty sample.
func percentile(v []float64, pct float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
