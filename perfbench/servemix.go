package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"guidedta/internal/mc"
	"guidedta/internal/serve"
	"guidedta/internal/tadsl"
)

// serveClients is the number of closed-loop clients: each sends its next
// request only after the previous one answered.
const serveClients = 2

// request is one generated POST /v1/jobs body.
type request struct {
	id     string
	tenant string
	body   string
	model  string // tadsl source of a model job; empty for plant jobs
}

// Request kinds of the serve-mix generator.
const (
	kindRepeat = iota
	kindPlantSmall
	kindPlantLarge
	kindModel
)

// serveRequests generates the seed's request mix. The set of distinct
// bodies is the same for every seed, so every seed asks for the same work;
// the seed draws only the order, the tenants and which earlier body each
// repeat asks for again. A quarter of the requests repeat an earlier body; of
// the new bodies a fifth are Fischer-4 model jobs with constants spread over
// 1–64, and the rest plant jobs, half of 3 and half of 4 batches, with
// deadline and type-B treatment time overlays spread evenly over 95–134 and
// 6–8. Only the repeats are cache hits.
func serveRequests(seed int64, tiny bool) []request {
	rng := rand.New(rand.NewSource(seed))
	n, minBatches := 300, 3
	if tiny {
		n, minBatches = 24, 2
	}
	repeats := n / 4
	models := (n - repeats) / 5
	small := (n - repeats - models) / 2
	counts := []int{repeats, small, n - repeats - models - small, models}

	plants := map[int][]string{}
	for _, kind := range []int{kindPlantSmall, kindPlantLarge} {
		batches := minBatches + kind - kindPlantSmall
		var all []string
		for deadline := 95; deadline <= 134; deadline++ {
			for treatB := 6; treatB <= 8; treatB++ {
				all = append(all, fmt.Sprintf(
					`{"plant":{"batches":%d,"params":{"deadline":%d,"treat_b":%d}},"options":{"search":"dfs","workers":1}}`,
					batches, deadline, treatB))
			}
		}
		for i := 0; i < counts[kind]; i++ {
			plants[kind] = append(plants[kind], all[i*len(all)/counts[kind]])
		}
		rng.Shuffle(len(plants[kind]), func(i, j int) { plants[kind][i], plants[kind][j] = plants[kind][j], plants[kind][i] })
	}
	constants := make([]int, models)
	for i := range constants {
		constants[i] = 1 + i*64/models
	}
	rng.Shuffle(len(constants), func(i, j int) { constants[i], constants[j] = constants[j], constants[i] })

	kinds := make([]int, 0, n)
	for kind, count := range counts {
		for i := 0; i < count; i++ {
			kinds = append(kinds, kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i, kind := range kinds {
		if kind != kindRepeat { // the first request has nothing to repeat
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}

	tenants := []string{"plant-ops", "verification"}
	reqs := make([]request, n)
	for i, kind := range kinds {
		r := &reqs[i]
		r.id = fmt.Sprintf("r%03d", i)
		r.tenant = tenants[rng.Intn(len(tenants))]
		switch kind {
		case kindRepeat:
			prev := reqs[rng.Intn(i)]
			r.body, r.model = prev.body, prev.model
		case kindModel:
			r.model, constants = fischerSource(4, constants[0]), constants[1:]
			src, _ := json.Marshal(r.model) // marshaling a string cannot fail
			r.body = fmt.Sprintf(`{"model":%s,"options":{"search":"bfs","workers":1}}`, src)
		default:
			r.body, plants[kind] = plants[kind][0], plants[kind][1:]
		}
	}
	return reqs
}

// response is one answered request.
type response struct {
	req     request
	status  int
	latency time.Duration
	job     serve.JobJSON
	err     error
}

// generatorRecord is serve-mix's load-generator account of a run.
type generatorRecord struct {
	Seed      int64  `json:"seed"`
	Loop      string `json:"loop"`
	Clients   int    `json:"clients"`
	Passes    int    `json:"passes"`
	PerPass   int    `json:"requests_per_pass"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Throttled int    `json:"throttled_429"`
}

// serveMix drives an in-process mcserved (one worker, default cache)
// behind a loopback listener with two closed-loop clients, so one client's
// job waits in the admission queue while the other's runs. One worker
// leaves the second core to the clients, the HTTP stack and the collector:
// with two workers both cores were busy and pass walls swung twice as far
// with the machine's load. Every pass starts a fresh server, so its cache
// starts cold.
func serveMix() workload {
	return workload{name: "serve-mix", clients: serveClients, setup: func(r *run) (*stage, error) {
		reqs := serveRequests(r.cfg.seed, r.cfg.tiny)
		if r.generator == nil {
			r.generator = &generatorRecord{Seed: r.cfg.seed, Loop: "closed", Clients: serveClients, PerPass: len(reqs)}
		}
		srv := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		var resps []response
		var mu sync.Mutex
		client := func(p *pass, c int) {
			span := r.tr.start(p.root, benchLayer, "client", strconv.Itoa(c))
			defer r.tr.end(span)
			hc := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for i := c; i < len(reqs); i += serveClients {
				resp := r.post(hc, ts.URL, span, reqs[i])
				if resp.err == nil && resp.status == http.StatusOK && resp.job.State == serve.JobDone {
					p.job(resp.req.id, resp.latency)
				}
				mu.Lock()
				resps = append(resps, resp)
				mu.Unlock()
			}
		}
		return &stage{
			work: func(p *pass) {
				var wg sync.WaitGroup
				for c := 0; c < serveClients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						client(p, c)
					}()
				}
				wg.Wait()
			},
			check: func(p *pass) { r.checkResponses(p, resps) },
			close: func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Drain(ctx)
			},
		}, nil
	}}
}

// post sends one request and waits for its job to settle.
func (r *run) post(hc *http.Client, url string, parent int, req request) response {
	out := response{req: req}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs?wait=1", bytes.NewBufferString(req.body))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", req.tenant)
	span := r.tr.start(parent, "serve", spanRequest, req.id)
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
	}
	out.latency = time.Since(t0)
	r.tr.end(span)
	if err != nil {
		out.err = err
		return out
	}
	if out.status == http.StatusOK {
		out.err = json.Unmarshal(body, &out.job)
	}
	return out
}

// checkResponses is serve-mix's gate: every job is done; a repeated body
// returns the same schedule and program, or the same verdict, as its first
// answer; a model job's verdict and effort match a direct mc.Explore of the
// same source, and its model hash matches tadsl.Hash.
func (r *run) checkResponses(p *pass, resps []response) {
	g := r.generator
	g.Passes++
	p.requests = len(resps)
	for _, resp := range resps {
		r.attempted++
		g.Sent++
		id := resp.req.id
		switch {
		case resp.err != nil:
			p.errors++
			r.fail("%s: %v", id, resp.err)
			continue
		case resp.status == http.StatusTooManyRequests:
			p.throttled++
			r.fail("%s: throttled (429)", id)
			continue
		case resp.status != http.StatusOK:
			p.errors++
			r.fail("%s: HTTP %d", id, resp.status)
			continue
		case resp.job.State != serve.JobDone || resp.job.Error != "" || resp.job.Report == nil:
			p.errors++
			r.fail("%s: job %s %s", id, resp.job.State, resp.job.Error)
			continue
		}
		job := resp.job
		switch job.Cache {
		case serve.CacheHit:
			p.hits++
		case serve.CacheCoalesced:
			p.coalesced++
		default:
			st := job.Report.Stats
			d := time.Duration(st.DurationSeconds * float64(time.Second))
			p.search.add(st.StatesExplored, st.StatesStored, st.Transitions, st.PeakWaiting,
				st.Evictions, st.StoreBytes, st.MemBytes, 0, d)
			p.search.traceLen += job.Report.Result.TraceLen
			p.missSearch = append(p.missSearch, float64(d)/float64(time.Millisecond))
			p.missOverhead = append(p.missOverhead, float64(resp.latency-d)/float64(time.Millisecond))
			if job.Schedule != nil {
				p.commands += len(job.Schedule.Commands)
			}
		}
		if err := r.checkJob(p, resp); err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		g.Succeeded++
	}
	g.Failed = r.failed
	g.Throttled += p.throttled
}

// checkJob checks one settled job.
func (r *run) checkJob(p *pass, resp response) error {
	job := resp.job
	res := job.Report.Result
	if resp.req.model == "" {
		if job.Schedule == nil || job.Program == nil || !res.Found {
			return fmt.Errorf("plant job has no schedule or program")
		}
		text := job.Schedule.Text + job.Program.Text
		_, seen := r.firstOut[resp.req.body]
		if seen && r.corruptNow() { // damage an answer the gate compares
			text += "corrupted"
		}
		if !seen {
			horizon, err := strconv.ParseFloat(job.Schedule.Horizon, 64)
			if err != nil {
				return fmt.Errorf("schedule horizon %q: %v", job.Schedule.Horizon, err)
			}
			r.horizonUnits += horizon
			r.instrs += float64(job.Program.Instructions)
			r.batches += job.Schedule.Batches
		}
		if !r.reproduces(resp.req.body, text) {
			return fmt.Errorf("schedule or program differs from the first answer to the same body")
		}
		return nil
	}
	want, err := r.direct(resp.req.model)
	if err != nil {
		return err
	}
	if job.ModelSHA256 != want.sha {
		return fmt.Errorf("model hash %s, tadsl.Hash gives %s", job.ModelSHA256, want.sha)
	}
	if res.Found != want.res.Found || job.Report.Stats.StatesExplored != want.res.Stats.StatesExplored {
		return fmt.Errorf("verdict found=%v after %d states, direct mc.Explore found=%v after %d",
			res.Found, job.Report.Stats.StatesExplored, want.res.Found, want.res.Stats.StatesExplored)
	}
	if res.Found {
		return fmt.Errorf("mutual exclusion reported violated")
	}
	return nil
}

// directResult is the reference answer for a model job.
type directResult struct {
	sha string
	res mc.Result
}

// direct parses, hashes and explores a model job's source in-process, once
// per distinct source per run.
func (r *run) direct(src string) (directResult, error) {
	key := "direct/" + src
	if d, ok := r.cache[key].(directResult); ok {
		return d, nil
	}
	var m *tadsl.Model
	var err error
	r.tr.do(-1, "tadsl", spanParse, "", func() { m, err = tadsl.Parse(src) })
	if err != nil {
		return directResult{}, err
	}
	var d directResult
	r.tr.do(-1, "tadsl", spanHash, "", func() { d.sha, err = tadsl.Hash(m.Sys, &m.Query) })
	if err != nil {
		return d, err
	}
	if d.res, err = mc.Explore(m.Sys, m.Query, searchOptions(mc.BFS, nil)); err != nil {
		return d, err
	}
	r.cache[key] = d
	return d, nil
}
