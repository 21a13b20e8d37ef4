// Fleet mode: mcbench -fleet -serve-url URL drives online re-synthesis
// against a running mcserved — the paper's Section 6 story (worn batteries
// invalidated the deployed schedule and the control program had to be
// re-synthesized against remeasured constants) scaled to a fleet of plants
// drifting concurrently.
//
// N simulated plants across two tenants stream disturbance rounds
// (PlantRequest.Params overlays, marked resynthesis: true) into the
// server. BENCH_fleet.json records re-synthesis latency percentiles and
// per-tenant admission stats under the weighted-fair queue.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"guidedta/internal/plant"
)

// fleetConfig is the -fleet flag block.
type fleetConfig struct {
	serveURL string
	plants   int
	rounds   int
	batches  int
	out      string
}

// fleetBench is the BENCH_fleet.json layout.
type fleetBench struct {
	Generated string           `json:"generated"`
	GoVersion string           `json:"go_version"`
	Batches   int              `json:"batches"`
	Fleet     *fleetServeBench `json:"fleet"`
}

// fleetDisturbances are the modeled drifts of a plant's real timings away
// from the constants the deployed schedule was synthesized against, in
// the order a plant suffers them.
var fleetDisturbances = []func(plant.Params) plant.Params{
	func(p plant.Params) plant.Params {
		// Wear, the Section 6 battery story: every movement one unit
		// slower (mirrors internal/fuzz's worn-plant case).
		p.BMove++
		p.CMove++
		p.CUp++
		p.CDown++
		return p
	},
	func(p plant.Params) plant.Params {
		// A tighter temperature bound: ten units less from pour to cast.
		p.Deadline -= 10
		return p
	},
	func(p plant.Params) plant.Params {
		// A degraded type-B treatment unit runs half again as long.
		p.TreatB += 3
		return p
	},
}

// runFleet drives the fleet against cfg.serveURL and writes
// BENCH_fleet.json.
func runFleet(cfg fleetConfig) error {
	if cfg.serveURL == "" {
		return errors.New("-fleet needs -serve-url: it drives a running mcserved")
	}
	fs, err := runFleetServe(cfg)
	if err != nil {
		return err
	}
	bf := fleetBench{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Batches:   cfg.batches,
		Fleet:     fs,
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mcbench: wrote %s\n", cfg.out)
	return nil
}

// fleetServeBench is the fleet section of BENCH_fleet.json.
type fleetServeBench struct {
	ServeURL  string    `json:"serve_url"`
	Plants    int       `json:"plants"`
	Rounds    int       `json:"rounds"`
	Requests  int       `json:"requests"`
	CacheHits int64     `json:"cache_hits"`
	Errors    int64     `json:"errors"`
	Throttled int64     `json:"throttled_429"`
	LatencyMS latencyMS `json:"latency_ms"`
	// ResynthMS is the latency distribution of re-synthesis rounds only
	// (round >= 1: the requests a live fleet actually waits on).
	ResynthMS latencyMS               `json:"resynth_ms"`
	Tenants   map[string]*fleetTenant `json:"tenants"`
}

// fleetTenant is one tenant's client-observed admission record.
type fleetTenant struct {
	Requests  int   `json:"requests"`
	Completed int   `json:"completed"`
	Throttled int64 `json:"throttled_429"`
}

// fleetPlantParams is plant i's measured constants after round r: a
// distinct base per plant (so the fleet spans distinct models) plus the
// cumulative disturbance stream — wear first, then a deadline shift, then
// a degraded unit, cycling.
func fleetPlantParams(i, r int) plant.Params {
	p := plant.DefaultParams()
	p.Deadline += int32(i % 3) // distinct base models across the fleet
	for round := 1; round <= r; round++ {
		p = fleetDisturbances[(round-1)%len(fleetDisturbances)](p)
	}
	return p
}

// runFleetServe streams disturbance rounds from cfg.plants simulated
// plants (split across two tenants) into the server.
func runFleetServe(cfg fleetConfig) (*fleetServeBench, error) {
	base := strings.TrimSuffix(cfg.serveURL, "/")
	if resp, err := http.Get(base + "/v1/healthz"); err != nil {
		return nil, fmt.Errorf("server unreachable: %w", err)
	} else {
		resp.Body.Close()
	}

	tenantOf := func(i int) string {
		if i%2 == 0 {
			return "acme"
		}
		return "beta"
	}

	fs := &fleetServeBench{
		ServeURL: cfg.serveURL,
		Plants:   cfg.plants,
		Rounds:   cfg.rounds,
		Tenants:  map[string]*fleetTenant{"acme": {}, "beta": {}},
	}
	type sample struct {
		ms    float64
		round int
	}
	var (
		mu        sync.Mutex
		samples   []sample
		cacheHits atomic.Int64
		errs      atomic.Int64
	)
	throttledBy := map[string]*atomic.Int64{"acme": {}, "beta": {}}
	client := &http.Client{Timeout: 2 * time.Minute}
	var wg sync.WaitGroup
	for i := 0; i < cfg.plants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := tenantOf(i)
			// Round 0 is the initial deployment synthesis; each later
			// round re-synthesizes after the next measured disturbance.
			for r := 0; r <= cfg.rounds; r++ {
				params := fleetPlantParams(i, r)
				body, _ := json.Marshal(map[string]any{
					"plant": map[string]any{
						"batches": cfg.batches,
						"params": map[string]any{
							"b_move": params.BMove, "c_move": params.CMove,
							"c_up": params.CUp, "c_down": params.CDown,
							"treat_a": params.TreatA, "treat_b": params.TreatB,
							"treat_m3": params.TreatM3, "cast_time": params.CastTime,
							"turn_time": params.TurnTime, "deadline": params.Deadline,
						},
					},
					"options":     map[string]any{"search": "dfs"},
					"resynthesis": r > 0,
				})
				t0 := time.Now()
				cache, err := fleetPost(client, base, tenant, string(body), throttledBy[tenant])
				lat := time.Since(t0).Seconds() * 1000
				mu.Lock()
				fs.Tenants[tenant].Requests++
				if err != nil {
					errs.Add(1)
					fmt.Fprintf(os.Stderr, "mcbench: fleet plant %d round %d: %v\n", i, r, err)
				} else {
					fs.Tenants[tenant].Completed++
					samples = append(samples, sample{ms: lat, round: r})
					if cache == "hit" {
						cacheHits.Add(1)
					}
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	fs.Requests = cfg.plants * (cfg.rounds + 1)
	fs.CacheHits = cacheHits.Load()
	fs.Errors = errs.Load()
	for name, t := range fs.Tenants {
		t.Throttled = throttledBy[name].Load()
		fs.Throttled += t.Throttled
	}
	pick := func(keep func(sample) bool) latencyMS {
		var ms []float64
		for _, s := range samples {
			if keep(s) {
				ms = append(ms, s.ms)
			}
		}
		sort.Float64s(ms)
		pct := func(p float64) float64 {
			if len(ms) == 0 {
				return 0
			}
			return ms[int(p*float64(len(ms)-1))]
		}
		return latencyMS{P50: pct(0.50), P90: pct(0.90), P99: pct(0.99), Max: pct(1.0)}
	}
	fs.LatencyMS = pick(func(sample) bool { return true })
	fs.ResynthMS = pick(func(s sample) bool { return s.round > 0 })
	fmt.Fprintf(os.Stderr,
		"mcbench: fleet %d plants x %d rounds: resynth p50 %.1fms p99 %.1fms, %d throttled, %d error(s)\n",
		cfg.plants, cfg.rounds, fs.ResynthMS.P50, fs.ResynthMS.P99, fs.Throttled, fs.Errors)
	if fs.Errors > 0 {
		return fs, fmt.Errorf("%d fleet request(s) failed", fs.Errors)
	}
	return fs, nil
}

// fleetPost submits one fleet job under its tenant, waits for the settled
// record, and returns its cache state, backing off on the tenant's own
// 429s.
func fleetPost(client *http.Client, base, tenant, body string, throttled *atomic.Int64) (string, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs?wait=1", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			throttled.Add(1)
			delay := 50 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if d, perr := time.ParseDuration(ra + "s"); perr == nil {
					delay = d
				}
			}
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
		var jj struct {
			State string `json:"state"`
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal(data, &jj); err != nil {
			return "", fmt.Errorf("bad job response: %w", err)
		}
		if jj.State != "done" {
			return "", fmt.Errorf("job settled as %q", jj.State)
		}
		return jj.Cache, nil
	}
}
