package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/ledger"
)

// hybrid-grid: seeded heterogeneous fleet days, each split into coalitions
// and streamed through pem.Grid on the hybrid backend in a closed loop with
// nproc coalitions in flight. A run holds a fixed number of days, each a
// different fleet derived from the seed; every day provisions fresh keys
// for every coalition.
const (
	gridCoalitions = 8
	gridHomes      = 8 // per coalition
	gridWindows    = 40
	gridKeyBits    = 1024
	// gridStartHour is 17:30, when demand overtakes supply in nearly every
	// coalition: general markets, so Protocol 3's pricing runs too.
	gridStartHour = 17.5
	// gridDaySeconds is the nominal length of one grid-day; the run holds
	// seconds/gridDaySeconds days.
	gridDaySeconds = 5
	// gridRecoverReps is how many times each day's WAL is re-opened and
	// its chains rebuilt; resume_ms is the median over all days.
	gridRecoverReps = 4
)

func gridDays(o opts) int {
	if n := o.seconds / gridDaySeconds; n > 1 {
		return n
	}
	return 1
}

// gridFleetConfig derives each day's fleet from the seed: every day of a
// run is a different fleet, so one run averages over several fleets'
// make-up. The fleet seed is the first draw clear of the fixed-point band
// (see drawClear).
func gridFleetConfig(o opts, day int) (pem.FleetConfig, error) {
	cfg := pem.FleetConfig{
		Coalitions:        gridCoalitions,
		HomesPerCoalition: gridHomes,
		Windows:           gridWindows,
		StartHour:         gridStartHour,
	}
	seed, err := drawClear(o.seed*64+int64(day), func(seed int64) ([]*pem.Trace, error) {
		c := cfg
		c.Seed = seed
		fleet, err := pem.GenerateFleet(c)
		return []*pem.Trace{fleet}, err
	})
	cfg.Seed = seed
	return cfg, err
}

func gridConfig(o opts, day int, st pem.Store) pem.GridConfig {
	seed := programSeed + int64(day)
	return pem.GridConfig{
		Market: pem.Config{
			KeyBits:       gridKeyBits,
			Seed:          &seed,
			CryptoBackend: pem.BackendHybrid,
			Network:       pem.NetworkWAN,
		},
		Coalitions:              gridCoalitions,
		Partition:               pem.PartitionBalanced,
		MaxConcurrentCoalitions: runtime.NumCPU(),
		Store:                   st,
	}
}

// coalitionDay is what the benchmark keeps of one delivered coalition-day
// for its checks, copied out of the sink before the payload is released.
type coalitionDay struct {
	name    string
	members []int
	results []*pem.WindowResult
	ledger  *pem.Ledger
	head    string
	rekey   time.Duration
}

func keepCoalition(cr *pem.CoalitionRun) coalitionDay {
	return coalitionDay{
		name:    cr.Name,
		members: append([]int(nil), cr.Members...),
		results: append([]*pem.WindowResult(nil), cr.Results...),
		ledger:  cr.Ledger,
		head:    cr.ChainHead,
		rekey:   cr.Rekey,
	}
}

// gridDay is one timed grid-day.
type gridDay struct {
	res      *pem.GridResult
	days     []coalitionDay
	wall     time.Duration
	cpu      time.Duration
	walPath  string
	walBytes int64
}

func runGridDay(o opts, t *tally, fleet *pem.Trace, day int) (*gridDay, error) {
	gd := &gridDay{walPath: filepath.Join(o.scratch, fmt.Sprintf("grid-%d.wal", day))}
	wal, err := pem.OpenWAL(gd.walPath)
	if err != nil {
		return nil, err
	}
	g, err := pem.NewGrid(gridConfig(o, day, wal), fleet)
	if err != nil {
		wal.Close()
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	gd.res, err = g.Stream(context.Background(), func(cr *pem.CoalitionRun) error {
		gd.days = append(gd.days, keepCoalition(cr))
		return nil
	})
	gd.wall = time.Since(start)
	gd.cpu = cpuTime() - cpu0
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	failed := gridCoalitions - len(gd.days)
	if err != nil && failed == 0 {
		failed = 1
	}
	t.add("coalition-days", gridCoalitions, failed)
	if err != nil {
		fmt.Printf("hybrid-grid day %d: %v\n", day, err)
		return nil, err
	}
	if gd.walBytes, err = fileSize(gd.walPath); err != nil {
		return nil, err
	}
	return gd, nil
}

// checkGridDay checks every window of every coalition against the inputs,
// and every coalition chain against its stored copy.
func checkGridDay(t *tally, fleet *pem.Trace, gd *gridDay, stored map[string][]pem.Block) error {
	params := pem.DefaultParams()
	windows := 0
	for _, cd := range gd.days {
		sub, err := fleet.Select(cd.members)
		if err != nil {
			return err
		}
		if err := checkCoalition(t, cd, sub, params); err != nil {
			return err
		}
		windows += len(cd.results)
		checkChain(t, cd.name, cd.ledger, stored[cd.name])
		t.check(cd.ledger != nil && ledger.HashString(cd.ledger.Head().Hash) == cd.head,
			"%s: reported chain head %s differs from its ledger", cd.name, cd.head)
	}
	t.check(windows == gd.res.Windows, "grid reports %d windows, coalitions delivered %d", gd.res.Windows, windows)
	t.check(len(gd.days) == gridCoalitions, "%d of %d coalitions delivered", len(gd.days), gridCoalitions)
	return nil
}

// checkCoalition checks one coalition-day's windows against its members'
// inputs.
func checkCoalition(t *tally, cd coalitionDay, sub *pem.Trace, params pem.Params) error {
	agents := sub.Agents()
	t.check(len(cd.results) == sub.Windows, "%s: %d of %d windows", cd.name, len(cd.results), sub.Windows)
	for w, res := range cd.results {
		in, err := sub.WindowInputs(w)
		if err != nil {
			return err
		}
		checkWindow(t, fmt.Sprintf("%s window %d", cd.name, w), agents, in, res, params)
	}
	return nil
}

// newProbeMarket is the private market the fixed probe window runs on
// (hybrid backend, like the grid's coalitions; the key size does not
// matter to the probe, so it is the smallest).
func newProbeMarket() (*pem.Market, error) {
	seed := programSeed
	return pem.NewMarket(pem.Config{KeyBits: 512, Seed: &seed, CryptoBackend: pem.BackendHybrid}, probeAgents)
}

// storedChains reads every scope's blocks back from a closed WAL.
func storedChains(path string) (map[string][]pem.Block, error) {
	wal, err := pem.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	scopes, err := wal.Scopes()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]pem.Block, len(scopes))
	for _, s := range scopes {
		if out[s], err = wal.Blocks(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recoverChains re-opens a WAL and rebuilds and verifies every chain in
// it, the restart path of a durable grid.
func recoverChains(path string) (time.Duration, error) {
	start := time.Now()
	chains, err := storedChains(path)
	if err != nil {
		return 0, err
	}
	for s, blocks := range chains {
		l, err := pem.LedgerFromBlocks(blocks)
		if err != nil {
			return 0, fmt.Errorf("scope %s: %w", s, err)
		}
		if err := l.Verify(); err != nil {
			return 0, fmt.Errorf("scope %s: %w", s, err)
		}
	}
	return time.Since(start), nil
}

// setupGrid synthesizes one day's fleet and builds its grid (partition).
func setupGrid(o opts, day int) (*pem.Trace, time.Duration, error) {
	cfg, err := gridFleetConfig(o, day)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	fleet, err := pem.GenerateFleet(cfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := pem.NewGrid(gridConfig(o, day, nil), fleet); err != nil {
		return nil, 0, err
	}
	return fleet, time.Since(start), nil
}

func runHybridGrid(o opts, t *tally) (map[string]metric, error) {
	var (
		setups, rates, lat, virt, rekeys, recov []float64
		windows                                 int
		cpu                                     time.Duration
		bytes, walBytes                         int64
	)
	probe, err := newProbeMarket()
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	for day := 0; day < gridDays(o); day++ {
		runtime.GC()
		fleet, d, err := setupGrid(o, day)
		if err != nil {
			return nil, fmt.Errorf("hybrid-grid setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		gd, err := runGridDay(o, t, fleet, day)
		if err != nil {
			continue
		}
		rates = append(rates, float64(gd.res.Windows)/gd.wall.Seconds())
		windows += gd.res.Windows
		cpu += gd.cpu
		bytes += gd.res.TotalBytes
		walBytes += gd.walBytes
		for _, cd := range gd.days {
			rekeys = append(rekeys, ms(cd.rekey))
			for _, res := range cd.results {
				lat = append(lat, ms(res.Duration))
				virt = append(virt, ms(res.VirtualLatency))
			}
		}
		t.add("windows", gd.res.Windows, 0)
		stored, err := storedChains(gd.walPath)
		if err != nil {
			return nil, err
		}
		if err := checkGridDay(t, fleet, gd, stored); err != nil {
			return nil, err
		}
		for i := 0; i < gridRecoverReps; i++ {
			runtime.GC()
			d, err := recoverChains(gd.walPath)
			t.op("resumes", err)
			if err == nil {
				recov = append(recov, ms(d))
			}
		}
		probeFixedPoint(t, probe, day)
	}
	if windows == 0 {
		return nil, fmt.Errorf("hybrid-grid: no grid-day completed")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	tailP, tail := tailPercentile(lat)
	fmt.Printf("hybrid-grid: %d days × %d coalitions × %d homes × %d windows, tail = p%d of %d windows, windows/s per day %.2f\n",
		len(rates), gridCoalitions, gridHomes, gridWindows, tailP, len(lat), rates)
	n := float64(windows)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"window_p50_ms":        {median(lat), "ms"},
		"window_tail_ms":       {tail, "ms"},
		"windows_per_s":        {median(rates), "1/s"},
		"cpu_ms_per_window":    {ms(cpu) / n, "ms"},
		"bytes_per_window":     {float64(bytes) / n, "B"},
		"virtual_window_ms":    {median(virt), "ms"},
		"rekey_p50_ms":         {median(rekeys), "ms"},
		"resume_ms":            {median(recov), "ms"},
		"wal_bytes_per_window": {float64(walBytes) / n, "B"},
		"peak_rss_mib":         {rss, "MiB"},
	}, nil
}
