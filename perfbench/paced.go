package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pem-go/pem"
)

// paper-paced: the paper's construction as deployed — one solo market with
// the program defaults (Paillier, 1024-bit keys, PreEncrypt on, ring
// aggregation, one window in flight) under WAN emulation, fed the midday
// slice of a synthetic day on a fixed release period.
const (
	pacedHomes   = 12
	pacedKeyBits = 1024
	// pacedPeriod is the release period: windows are due every period
	// whether or not the previous one finished (open loop). The idle time
	// after each window is where the nonce pool refills.
	pacedPeriod = 500 * time.Millisecond
	// The slice starts at a seed-drawn minute between 11:30 and 12:29.
	// pacedSunHomes homes have small panels (1.5–2 kW, light cloud) and the
	// rest have none, so every window has the same four sellers with less
	// supply than the buyers' demand: a general market, in which Protocols
	// 2–4 all run (an extreme market skips Protocol 3's pricing).
	pacedEarliestStart = 11.5
	pacedSunHomes      = 4
	// setupReps is how many times each workload sets up per run; setup_s
	// is their median.
	setupReps = 5
	// restartReps is how many times the market is restarted from its WAL;
	// resume_ms is their median.
	restartReps = 9
)

// pacedWindows is the fixed amount of work in one run: one window per
// release period over the nominal run length.
func pacedWindows(o opts) int {
	n := int(time.Duration(o.seconds) * time.Second / pacedPeriod)
	if n < 1 {
		n = 1
	}
	return n
}

// pacedStartMinute is the slice's first window as minutes after 07:00, the
// start of the program's trading day; windows are numbered from it.
func pacedStartMinute(o opts) int {
	return int((pacedEarliestStart-7)*60) + int(uint64(o.seed)*2654435761%60)
}

// pacedTrace synthesizes the roster: pacedSunHomes homes with panels and
// the rest without (a SolarFraction of 1e-9 draws none), as one trace. The
// draw is the first clear of the fixed-point band (see drawClear).
func pacedTrace(o opts) (*pem.Trace, error) {
	draw := func(seed int64) (*pem.Trace, error) {
		start := 7 + float64(pacedStartMinute(o))/60
		sun, err := pem.GenerateTrace(pem.TraceConfig{
			Homes: pacedSunHomes, Windows: pacedWindows(o), Seed: 2 * seed, StartHour: start,
			SolarFraction: 1, SolarCapMinKW: 1.5, SolarCapMaxKW: 2, CloudFloor: 0.95, IDPrefix: "sun-",
		})
		if err != nil {
			return nil, err
		}
		dark, err := pem.GenerateTrace(pem.TraceConfig{
			Homes: pacedHomes - pacedSunHomes, Windows: pacedWindows(o), Seed: 2*seed + 1, StartHour: start,
			SolarFraction: 1e-9, IDPrefix: "meter-",
		})
		if err != nil {
			return nil, err
		}
		return &pem.Trace{
			Homes:     append(sun.Homes, dark.Homes...),
			Windows:   sun.Windows,
			StartHour: sun.StartHour,
			Gen:       append(sun.Gen, dark.Gen...),
			Load:      append(sun.Load, dark.Load...),
			Battery:   append(sun.Battery, dark.Battery...),
		}, nil
	}
	seed, err := drawClear(o.seed, func(seed int64) ([]*pem.Trace, error) {
		tr, err := draw(seed)
		return []*pem.Trace{tr}, err
	})
	if err != nil {
		return nil, err
	}
	return draw(seed)
}

func pacedConfig(o opts, st pem.Store) pem.Config {
	seed := programSeed
	pool := !o.noPool
	return pem.Config{
		KeyBits:    pacedKeyBits,
		Seed:       &seed,
		Network:    pem.NetworkWAN,
		PreEncrypt: &pool,
		Store:      st,
	}
}

// pacedMarket is one set-up: inputs synthesized, keys generated and the
// pre-encryption pool filled to its target.
type pacedMarket struct {
	trace     *pem.Trace
	inputs    [][]pem.WindowInput
	market    *pem.Market
	wal       *pem.WALStore
	walPath   string
	setup     time.Duration
	provision time.Duration
}

func (pm *pacedMarket) close() {
	if pm.market != nil {
		pm.market.Close()
	}
	if pm.wal != nil {
		pm.wal.Close()
	}
}

func setupPaced(o opts, rep int) (*pacedMarket, error) {
	pm := &pacedMarket{walPath: filepath.Join(o.scratch, fmt.Sprintf("paced-%d.wal", rep))}
	start := time.Now()
	tr, err := pacedTrace(o)
	if err != nil {
		return nil, err
	}
	pm.trace = tr
	pm.inputs = make([][]pem.WindowInput, tr.Windows)
	for w := range pm.inputs {
		if pm.inputs[w], err = tr.WindowInputs(w); err != nil {
			return nil, err
		}
	}
	if pm.wal, err = pem.OpenWAL(pm.walPath); err != nil {
		return nil, err
	}
	prov := time.Now()
	if pm.market, err = pem.NewMarket(pacedConfig(o, pm.wal), tr.Agents()); err != nil {
		pm.close()
		return nil, err
	}
	pm.provision = time.Since(prov)
	// The pools are created by the first window that encrypts under each
	// key, so set-up runs one warm-up window (the minute before the slice,
	// on the first input) and then waits for the pools' first fill: the
	// paper pre-encrypts in idle time before trading starts.
	first := pacedStartMinute(o)
	if _, err := pm.market.RunWindow(context.Background(), first-1, pm.inputs[0]); err != nil {
		pm.close()
		return nil, fmt.Errorf("warm-up window: %w", err)
	}
	deadline := time.Now().Add(time.Minute)
	for st := pm.market.PoolStats(); st.Ready < st.Target; st = pm.market.PoolStats() {
		if time.Now().After(deadline) {
			pm.close()
			return nil, fmt.Errorf("nonce pools at %d of %d after a minute", st.Ready, st.Target)
		}
		time.Sleep(time.Millisecond)
	}
	pm.setup = time.Since(start)
	return pm, nil
}

// pacedRun is the timed part's raw record.
type pacedRun struct {
	results  []*pem.WindowResult
	latency  []float64     // ms from due time to completion
	lateness []float64     // ms from due time to release
	backlog  int           // most windows overdue at once
	busy     time.Duration // summed release-to-completion time

	cpu      time.Duration
	bytes    int64
	walBytes int64
	pool0    pem.PoolStats
	pool1    pem.PoolStats
}

// drivePaced releases the windows on the fixed period (open loop), one in
// flight, timing each from its due time.
func drivePaced(pm *pacedMarket, first int, t *tally) (*pacedRun, error) {
	ctx := context.Background()
	n := len(pm.inputs)
	r := &pacedRun{results: make([]*pem.WindowResult, n), pool0: pm.market.PoolStats()}
	wal0, err := fileSize(pm.walPath)
	if err != nil {
		return nil, err
	}
	bytes0 := pm.market.Metrics().TotalBytes()
	cpu0 := cpuTime()
	start := time.Now()
	for w := 0; w < n; w++ {
		due := start.Add(time.Duration(w) * pacedPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		began := time.Now()
		if over := int(began.Sub(start)/pacedPeriod) - w; over > r.backlog {
			r.backlog = over
		}
		res, err := pm.market.RunWindow(ctx, first+w, pm.inputs[w])
		done := time.Now()
		t.op("windows", err)
		if err != nil {
			continue
		}
		r.results[w] = res
		r.latency = append(r.latency, ms(done.Sub(due)))
		r.lateness = append(r.lateness, ms(began.Sub(due)))
		r.busy += done.Sub(began)
	}
	r.cpu = cpuTime() - cpu0
	r.bytes = pm.market.Metrics().TotalBytes() - bytes0
	r.pool1 = pm.market.PoolStats()
	wal1, err := fileSize(pm.walPath)
	if err != nil {
		return nil, err
	}
	r.walBytes = wal1 - wal0
	return r, nil
}

func runPaced(o opts, t *tally) (map[string]metric, error) {
	var setups, provs []float64
	var pm *pacedMarket
	for rep := 0; rep < setupReps; rep++ {
		if pm != nil {
			pm.close()
		}
		runtime.GC()
		var err error
		pm, err = setupPaced(o, rep)
		t.op("setups", err)
		if err != nil {
			return nil, fmt.Errorf("paper-paced setup: %w", err)
		}
		setups = append(setups, pm.setup.Seconds())
		provs = append(provs, ms(pm.provision))
	}
	defer pm.close()

	r, err := drivePaced(pm, pacedStartMinute(o), t)
	if err != nil {
		return nil, err
	}
	n := float64(len(pm.inputs))
	var virt []float64
	params := pem.DefaultParams()
	agents := pm.trace.Agents()
	for w, res := range r.results {
		if res == nil {
			continue
		}
		virt = append(virt, ms(res.VirtualLatency))
		checkWindow(t, fmt.Sprintf("window %d", w), agents, pm.inputs[w], res, params)
	}
	ledger := pm.market.Ledger()
	pm.market.Close()
	pm.market = nil
	if err := pm.wal.Close(); err != nil {
		return nil, err
	}
	pm.wal = nil

	stored, err := storedChains(pm.walPath)
	if err != nil {
		return nil, err
	}
	// Genesis, the warm-up window and the timed windows.
	t.check(len(stored["market"]) == len(pm.inputs)+2, "market WAL holds %d blocks, want %d",
		len(stored["market"]), len(pm.inputs)+2)
	checkChain(t, "market", ledger, stored["market"])

	// Restart: what a durable solo market does after a crash — re-open its
	// WAL, rebuild and verify its chain, and provision the roster's keys
	// again (a market keeps only key fingerprints on disk).
	var recov []float64
	for i := 0; i < restartReps; i++ {
		runtime.GC()
		d, err := restartMarket(o, pm)
		t.op("resumes", err)
		if err == nil {
			recov = append(recov, ms(d))
		}
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	tailP, tail := tailPercentile(r.latency)
	_, lateTail := tailPercentile(r.lateness)
	fmt.Printf("paper-paced: %d windows every %v, tail = p%d, release lateness p50 %.3f ms tail %.3f ms, max backlog %d, pool hits %d misses %d\n",
		len(pm.inputs), pacedPeriod, tailP, median(r.lateness), lateTail, r.backlog,
		r.pool1.Hits-r.pool0.Hits, r.pool1.Misses-r.pool0.Misses)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"window_p50_ms":        {median(r.latency), "ms"},
		"window_tail_ms":       {tail, "ms"},
		"windows_per_s":        {float64(len(r.latency)) / r.busy.Seconds(), "1/s"},
		"cpu_ms_per_window":    {ms(r.cpu) / n, "ms"},
		"bytes_per_window":     {float64(r.bytes) / n, "B"},
		"virtual_window_ms":    {median(virt), "ms"},
		"rekey_p50_ms":         {median(provs), "ms"},
		"resume_ms":            {median(recov), "ms"},
		"wal_bytes_per_window": {float64(r.walBytes) / n, "B"},
		"peak_rss_mib":         {rss, "MiB"},
	}, nil
}

// restartMarket times one restart: the WAL's chain rebuilt and verified,
// then a market provisioned for the same roster (without a store, so the
// WAL stays as the timed run left it).
func restartMarket(o opts, pm *pacedMarket) (time.Duration, error) {
	start := time.Now()
	if _, err := recoverChains(pm.walPath); err != nil {
		return 0, err
	}
	m, err := pem.NewMarket(pacedConfig(o, nil), pm.trace.Agents())
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	m.Close()
	return d, nil
}
