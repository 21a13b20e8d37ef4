package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"guidedta/internal/fuzz"
	"guidedta/internal/mc"
	"guidedta/internal/plant"
	"guidedta/internal/rcx"
	"guidedta/internal/schedule"
	"guidedta/internal/sim"
	"guidedta/internal/snapshot"
	"guidedta/internal/synth"
	"guidedta/internal/ta"
	"guidedta/internal/tadsl"
)

// Span names: the public functions each layer is measured through.
const (
	spanBuild      = "plant.Build"
	spanExplore    = "mc.ExploreContext"
	spanConcretize = "mc.Concretize"
	spanProject    = "schedule.FromTrace+Validate"
	spanCompile    = "synth.NewCodec+Program"
	spanSim        = "sim.Run"
	spanLoad       = "snapshot.Load"
	spanParse      = "tadsl.Parse"
	spanHash       = "tadsl.Hash"
	spanRequest    = "POST /v1/jobs"
)

// plantInstance is one plant scheduling instance with the paper's full
// guides.
type plantInstance struct {
	id        string
	qualities []plant.Quality
}

func (pi plantInstance) config(g plant.GuideLevel) plant.Config {
	return plant.Config{Qualities: pi.qualities, Guides: g}
}

// synthesis carries one pipeline run's artifacts, as core.Synthesize
// produces them, plus the simulation report.
type synthesis struct {
	plant *plant.Plant
	res   mc.Result
	steps []mc.ConcreteStep
	sched schedule.Schedule
	prog  rcx.Program
	codec *synth.Codec
	sim   sim.Report
}

func (r *run) build(parent int, job string, cfg plant.Config) (*plant.Plant, error) {
	id := r.tr.start(parent, "plant", spanBuild, job)
	defer r.tr.end(id)
	return plant.Build(cfg)
}

func (r *run) explore(ctx context.Context, parent int, job string, sys *ta.System, goal mc.Goal, opts mc.Options) (mc.Result, error) {
	id := r.tr.start(parent, "mc", spanExplore, job)
	defer r.tr.end(id)
	return mc.ExploreContext(ctx, sys, goal, opts)
}

// searchOptions are the default options with one worker and the plant's
// successor-ordering heuristic, as core.Synthesize installs it.
func searchOptions(order mc.SearchOrder, p *plant.Plant) mc.Options {
	opts := mc.DefaultOptions(order)
	opts.Workers = 1
	if p != nil {
		opts.Observer = &mc.FuncObserver{Priority: p.Priority}
	}
	return opts
}

// record adds a finished search's counters to the pass.
func (p *pass) record(res mc.Result, d time.Duration) {
	st := res.Stats
	p.search.add(st.StatesExplored, st.StatesStored, st.Transitions, st.PeakWaiting,
		st.Evictions, st.StoreBytes, st.MemBytes, st.AvgZoneConstraints, d)
	p.search.traceLen += len(res.Trace)
}

// downstream runs the stages after the search: concretize, project,
// compile and simulate — the rest of core.Synthesize plus core.Simulate.
func (r *run) downstream(p *pass, parent int, job string, s *synthesis) error {
	var err error
	r.tr.do(parent, "mc", spanConcretize, job, func() { s.steps, err = mc.Concretize(s.plant.Sys, s.res.Trace) })
	if err != nil {
		return fmt.Errorf("concretize: %w", err)
	}
	r.tr.do(parent, "schedule", spanProject, job, func() {
		s.sched = schedule.FromTrace(s.plant, s.steps)
		err = s.sched.Validate()
	})
	if err != nil {
		return fmt.Errorf("projected schedule invalid: %w", err)
	}
	r.tr.do(parent, "synth", spanCompile, job, func() {
		s.codec = synth.NewCodec(s.sched)
		s.prog, err = synth.Program(s.sched, s.codec, synth.Options{})
	})
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	r.tr.do(parent, "sim", spanSim, job, func() {
		s.sim, err = sim.New(s.prog, s.codec, s.plant.NumBatches(), sim.Config{Params: s.plant.Cfg.Params}).Run()
	})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if p != nil {
		p.commands += len(s.sched.Lines)
		p.violations += len(s.sim.Violations)
	}
	return nil
}

// synthesize is core.Synthesize followed by a simulation, with every stage
// in its own span.
func (r *run) synthesize(p *pass, parent int, job string, cfg plant.Config) (*synthesis, error) {
	pl, err := r.build(parent, job, cfg)
	if err != nil {
		return nil, err
	}
	s := &synthesis{plant: pl}
	t0 := time.Now()
	s.res, err = r.explore(context.Background(), parent, job, pl.Sys, pl.Goal, searchOptions(mc.DFS, pl))
	if err != nil {
		return nil, err
	}
	p.record(s.res, time.Since(t0))
	if !s.res.Found {
		return s, fmt.Errorf("no schedule found (abort %q)", s.res.Abort)
	}
	return s, r.downstream(p, parent, job, s)
}

// checkWitness is the gate for a plant witness: the trace, mapped onto the
// unguided build, replays and concretizes there; the simulated program
// stores every ladle with no monitor violation.
func (r *run) checkWitness(job string, s *synthesis, unguided *plant.Plant) error {
	if !s.res.Found {
		return fmt.Errorf("plant instance not found (abort %q)", s.res.Abort)
	}
	trace := s.res.Trace
	if r.corruptNow() {
		trace = append([]mc.Transition(nil), trace[:len(trace)-1]...)
	}
	mapped, err := plant.MapTrace(s.plant.Sys, unguided.Sys, trace)
	if err != nil {
		return fmt.Errorf("mapping onto the unguided build: %w", err)
	}
	if err := fuzz.CheckTrace(unguided.Sys, unguided.Goal, mapped); err != nil {
		return fmt.Errorf("unguided replay: %w", err)
	}
	if !s.sim.OK(s.plant.NumBatches()) || len(s.sim.Violations) > 0 {
		return fmt.Errorf("simulation: %d violation(s), %d of %d ladles stored",
			len(s.sim.Violations), s.sim.Stored, s.plant.NumBatches())
	}
	return nil
}

// gateWitness checks a plant witness and records its schedule's quality.
func (r *run) gateWitness(p *pass, job string, s *synthesis, unguided *plant.Plant) {
	if err := r.checkWitness(job, s, unguided); err != nil {
		r.fail("%s: %v", job, err)
		return
	}
	r.schedule(p, job, float64(s.sched.Horizon)/2, len(s.prog), s.plant.NumBatches(),
		s.sched.Format()+s.prog.String())
}

// unguidedBuilds builds the reference models the gate replays witnesses on.
func unguidedBuilds(insts []plantInstance) (map[string]*plant.Plant, error) {
	out := map[string]*plant.Plant{}
	for _, in := range insts {
		p, err := plant.Build(in.config(plant.NoGuides))
		if err != nil {
			return nil, err
		}
		out[in.id] = p
	}
	return out, nil
}

// shuffled returns the instances in the seed's order.
func shuffled[T any](seed int64, in []T) []T {
	out := append([]T(nil), in...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// synthInstances are synth-dfs's fixed guided plants.
func synthInstances(tiny bool) []plantInstance {
	if tiny {
		return []plantInstance{
			{"cycle-2", plant.CycleQualities(2)},
			{"q2x2", []plant.Quality{plant.Q2, plant.Q2}},
			{"q1q3", []plant.Quality{plant.Q1, plant.Q3}},
		}
	}
	return []plantInstance{
		{"cycle-5", plant.CycleQualities(5)},
		{"q1q1q2q2q3", []plant.Quality{plant.Q1, plant.Q1, plant.Q2, plant.Q2, plant.Q3}},
		{"q2x5", []plant.Quality{plant.Q2, plant.Q2, plant.Q2, plant.Q2, plant.Q2}},
	}
}

// synthDFS is the core.Synthesize path: build, DFS search, concretize,
// project, compile and simulate, one instance after another.
func synthDFS() workload {
	return workload{name: "synth-dfs", clients: 1, setup: func(r *run) (*stage, error) {
		insts := shuffled(r.cfg.seed, synthInstances(r.cfg.tiny))
		unguided, err := unguidedBuilds(insts)
		if err != nil {
			return nil, err
		}
		out := map[string]*synthesis{}
		errs := map[string]error{}
		return &stage{
			work: func(p *pass) {
				for _, in := range insts {
					runtime.GC() // every instance starts from a collected heap, as in a fresh process
					job := r.tr.start(p.root, benchLayer, "job", in.id)
					t0 := time.Now()
					out[in.id], errs[in.id] = r.synthesize(p, job, in.id, in.config(plant.AllGuides))
					p.job(in.id, time.Since(t0))
					r.tr.end(job)
				}
			},
			check: func(p *pass) {
				for _, in := range insts {
					r.attempted++
					if errs[in.id] != nil {
						r.fail("%s: %v", in.id, errs[in.id])
						continue
					}
					r.gateWitness(p, in.id, out[in.id], unguided[in.id])
				}
			},
			close: func() {},
		}, nil
	}}
}

// fischerSource is Fischer's mutual-exclusion protocol for n processes with
// constant k, as tadsl source. The protocol is correct, so the query is
// unreachable and every search of it is exhaustive.
func fischerSource(n, k int) string {
	src := fmt.Sprintf("system fischer%d\n\nint id 0\nclock", n)
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf(" x%d", i)
	}
	src += "\n"
	for i := 1; i <= n; i++ {
		src += fmt.Sprintf(`
automaton P%[1]d {
    init loc idle
    loc req { inv x%[1]d <= %[2]d }
    loc wait
    loc cs
    idle -> req { guard id == 0; do x%[1]d := 0 }
    req -> wait { do id := %[1]d, x%[1]d := 0 }
    wait -> cs { guard x%[1]d > %[2]d && id == %[1]d }
    wait -> req { guard id == 0; do x%[1]d := 0 }
    cs -> idle { do id := 0 }
}
`, i, k)
	}
	return src + "\nquery exists P1.cs && P2.cs\n"
}

// verifyCase is one verify-bfs instance: a Fischer model given as source
// (expected unreachable) or a guided plant (expected found).
type verifyCase struct {
	id     string
	source string
	plant  *plantInstance
}

func verifyCases(tiny bool) []verifyCase {
	n, batches := 6, 3
	if tiny {
		n, batches = 3, 1
	}
	pi := plantInstance{fmt.Sprintf("plant-all-%d", batches), plant.CycleQualities(batches)}
	return []verifyCase{
		{id: fmt.Sprintf("fischer-%d", n), source: fischerSource(n, 2)},
		{id: pi.id, plant: &pi},
	}
}

// verifyBFS is exhaustive BFS verification: parse or build the model and
// search it, with no schedule pipeline in the timed work.
func verifyBFS() workload {
	return workload{name: "verify-bfs", clients: 1, setup: func(r *run) (*stage, error) {
		cases := shuffled(r.cfg.seed, verifyCases(r.cfg.tiny))
		var plants []plantInstance
		for _, c := range cases {
			if c.plant != nil {
				plants = append(plants, *c.plant)
			}
		}
		unguided, err := unguidedBuilds(plants)
		if err != nil {
			return nil, err
		}
		out := map[string]*synthesis{}
		errs := map[string]error{}
		verify := func(p *pass, parent int, c verifyCase) (*synthesis, error) {
			s := &synthesis{}
			var sys *ta.System
			var goal mc.Goal
			opts := searchOptions(mc.BFS, nil)
			if c.plant != nil {
				pl, err := r.build(parent, c.id, c.plant.config(plant.AllGuides))
				if err != nil {
					return nil, err
				}
				s.plant, sys, goal, opts = pl, pl.Sys, pl.Goal, searchOptions(mc.BFS, pl)
			} else {
				var m *tadsl.Model
				var err error
				r.tr.do(parent, "tadsl", spanParse, c.id, func() { m, err = tadsl.Parse(c.source) })
				if err != nil {
					return nil, err
				}
				sys, goal = m.Sys, m.Query
			}
			t0 := time.Now()
			res, err := r.explore(context.Background(), parent, c.id, sys, goal, opts)
			if err != nil {
				return nil, err
			}
			p.record(res, time.Since(t0))
			s.res = res
			return s, nil
		}
		return &stage{
			work: func(p *pass) {
				for _, c := range cases {
					runtime.GC() // every instance starts from a collected heap, as in a fresh process
					job := r.tr.start(p.root, benchLayer, "job", c.id)
					t0 := time.Now()
					out[c.id], errs[c.id] = verify(p, job, c)
					p.job(c.id, time.Since(t0))
					r.tr.end(job)
				}
			},
			check: func(p *pass) {
				for _, c := range cases {
					r.attempted++
					s, err := out[c.id], errs[c.id]
					switch {
					case err != nil:
						r.fail("%s: %v", c.id, err)
					case s.res.Abort != mc.AbortNone:
						r.fail("%s: search aborted (%s)", c.id, s.res.Abort)
					case c.plant == nil && s.res.Found:
						r.fail("%s: mutual exclusion reported violated", c.id)
					case c.plant == nil:
						r.reproduces(c.id, fmt.Sprint(s.res.Stats.StatesExplored, s.res.Stats.StatesStored))
					default:
						// The witness is checked end to end: unguided replay,
						// projection, compilation and simulation.
						if s.res.Found {
							if err := r.downstream(nil, -1, c.id, s); err != nil {
								r.fail("%s: %v", c.id, err)
								continue
							}
						}
						r.gateWitness(p, c.id, s, unguided[c.id])
					}
				}
			},
			close: func() {},
		}, nil
	}}
}

// durableInstance is durable-dfs's plant and the bands its seeded
// interruption points are drawn from (cumulative visited states).
func durableInstance(tiny bool) (plantInstance, [][2]int) {
	if tiny {
		return plantInstance{"cycle-3", plant.CycleQualities(3)}, [][2]int{{50, 70}, {90, 110}, {130, 150}}
	}
	return plantInstance{"cycle-5", plant.CycleQualities(5)}, [][2]int{{20_000, 25_000}, {45_000, 50_000}, {70_000, 75_000}}
}

// durableInterrupts are the cumulative visited-state counts at which the
// seed's search is canceled, one per band, ascending.
func durableInterrupts(seed int64, tiny bool) []int {
	_, bands := durableInstance(tiny)
	rng := rand.New(rand.NewSource(seed))
	stops := make([]int, len(bands))
	for i, b := range bands {
		stops[i] = b[0] + rng.Intn(b[1]-b[0]+1)
	}
	return stops
}

// durableDFS runs the synth-dfs pipeline with a durable search: the search
// is canceled at each of the seed's visited-state counts, writing its
// abort-time checkpoint; the benchmark loads each checkpoint, and the
// search resumes from it, the last time to completion. The checkpoints are
// written only at the interruptions, not on a timer, so every pass writes
// the same number whatever the machine's speed.
func durableDFS() workload {
	return workload{name: "durable-dfs", clients: 1, setup: func(r *run) (*stage, error) {
		in, _ := durableInstance(r.cfg.tiny)
		stops := durableInterrupts(r.cfg.seed, r.cfg.tiny)
		unguided, err := plant.Build(in.config(plant.NoGuides))
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(r.cfg.out, "durable-")
		if err != nil {
			return nil, err
		}
		var (
			s       *synthesis
			legs    []mc.Result
			loads   int
			errWork error
		)
		work := func(p *pass, parent int) error {
			pl, err := r.build(parent, in.id, in.config(plant.AllGuides))
			if err != nil {
				return err
			}
			s = &synthesis{plant: pl}
			opts := searchOptions(mc.DFS, pl)
			r.tr.do(parent, "tadsl", spanHash, in.id, func() { opts.Checkpoint.ModelSHA, err = tadsl.Hash(pl.Sys, &pl.Goal) })
			if err != nil {
				return err
			}
			opts.Checkpoint.Path = filepath.Join(dir, "search.ckpt")
			opts.Checkpoint.Resume = true

			legs, loads = legs[:0], 0
			visited := 0
			// Each search reports the checkpoint writes it made itself: a
			// resumed search restarts its write counters from the
			// checkpoint's, which are encoded before that checkpoint's own
			// write is counted. So the pass's totals are sums over searches.
			var searched, written, resumed time.Duration
			writes := 0
			for leg := 0; leg <= len(stops); leg++ {
				ctx, cancel := context.WithCancel(context.Background())
				stop := -1
				if leg < len(stops) {
					stop = stops[leg]
				}
				interruptible := opts
				interruptible.Observer = mc.Observers(opts.Observer, &mc.FuncObserver{OnVisit: func(mc.StateVisit) {
					if visited++; visited == stop {
						cancel()
					}
				}})
				t0 := time.Now()
				res, err := r.explore(ctx, parent, in.id, pl.Sys, pl.Goal, interruptible)
				searched += time.Since(t0)
				cancel()
				if err != nil {
					return err
				}
				legs = append(legs, res)
				writes, written, resumed = writes+res.Stats.CheckpointWrites, written+res.Stats.CheckpointTime, resumed+res.Stats.ResumeTime
				if leg == len(stops) || res.Abort != mc.AbortCanceled {
					s.res = res
					break
				}
				if fi, err := os.Stat(opts.Checkpoint.Path); err == nil {
					p.snapBytes = fi.Size()
				}
				r.tr.do(parent, "snapshot", spanLoad, in.id, func() { _, err = snapshot.Load(opts.Checkpoint.Path) })
				if err != nil {
					return fmt.Errorf("loading the checkpoint after %d visits: %w", stop, err)
				}
				loads++
			}
			p.record(s.res, searched)
			p.snapWrites, p.snapWrite, p.snapResume = writes, written, resumed
			if !s.res.Found {
				return fmt.Errorf("no schedule found (abort %q)", s.res.Abort)
			}
			return r.downstream(p, parent, in.id, s)
		}
		return &stage{
			work: func(p *pass) {
				job := r.tr.start(p.root, benchLayer, "job", in.id)
				t0 := time.Now()
				errWork = work(p, job)
				p.job(in.id, time.Since(t0))
				r.tr.end(job)
			},
			check: func(p *pass) {
				r.attempted++
				if errWork != nil {
					r.fail("%s: %v", in.id, errWork)
					return
				}
				if len(legs) != len(stops)+1 || loads != len(stops) {
					r.fail("%s: %d of %d interruptions at %v visits took effect", in.id, len(legs)-1, len(stops), stops)
					return
				}
				for i, leg := range legs {
					if i < len(stops) && leg.Abort != mc.AbortCanceled {
						r.fail("%s: search %d was not interrupted at %d visits (abort %q)", in.id, i+1, stops[i], leg.Abort)
						return
					}
					if leg.Resumed != (i > 0) {
						r.fail("%s: search %d resumed=%v", in.id, i+1, leg.Resumed)
						return
					}
				}
				ref, err := r.uninterrupted(in)
				if err != nil {
					r.fail("%s: reference run: %v", in.id, err)
					return
				}
				if ref.Found != s.res.Found || !reflect.DeepEqual(ref.Trace, s.res.Trace) {
					r.fail("%s: resumed verdict or trace differs from an uninterrupted run", in.id)
					return
				}
				r.gateWitness(p, in.id, s, unguided)
			},
			close: func() { os.RemoveAll(dir) },
		}, nil
	}}
}

// uninterrupted is the reference result of a plain DFS run, computed once
// per process.
func (r *run) uninterrupted(in plantInstance) (mc.Result, error) {
	key := "uninterrupted/" + in.id
	if res, ok := r.cache[key].(mc.Result); ok {
		return res, nil
	}
	pl, err := plant.Build(in.config(plant.AllGuides))
	if err != nil {
		return mc.Result{}, err
	}
	res, err := mc.Explore(pl.Sys, pl.Goal, searchOptions(mc.DFS, pl))
	if err != nil {
		return res, err
	}
	if !res.Found {
		return res, errors.New("no schedule found")
	}
	r.cache[key] = res
	return res, nil
}
