package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/dataset"
)

// durable-live: a pem.LiveGrid over several epochs of seeded churn with a
// WAL store on disk, on the hybrid backend under WAN emulation. A copy of
// the WAL cut after the last-but-one epoch's checkpoint is then resumed
// with pem.Resume and driven to the end.
const (
	liveCoalitions = 8
	liveHomes      = 8 // per coalition at epoch 0
	liveWindows    = 12
	liveKeyBits    = 1024
	liveStartHour  = 12
	// liveResumeReps is how many times the cut WAL copy is resumed and
	// closed unchanged; the last resumed run is driven to the end and
	// compared with the uninterrupted one.
	liveResumeReps = 31
)

// liveEpochs is the run's epoch count: one per nominal 3 s, at least
// three. The per-epoch medians (rekey stall, throughput) take one sample
// per epoch, so the epochs are many and spread over the whole run.
func liveEpochs(o opts) int {
	if n := o.seconds / 3; n > 3 {
		return n
	}
	return 3
}

// liveChurnSeed fixes the churn schedule (who joins, departs and fails at
// each boundary) and the later epochs' day draws, so every run has the
// same roster sizes and coalition shapes; --seed draws the base fleet.
const liveChurnSeed = 11

// liveChurn joins about as many homes per boundary as depart and fail;
// with liveChurnSeed the roster stays between 60 and 66 homes in every
// epoch, so each epoch rekeys and trades about as much as the others.
func liveChurn() pem.ChurnConfig {
	return pem.ChurnConfig{JoinRate: 0.13, DepartRate: 0.1, FailRate: 0.05, Seed: liveChurnSeed}
}

// liveFleet is the base fleet; its seed is the first draw from --seed
// whose evolution, every epoch of it, is clear of the fixed-point band
// (see drawClear).
func liveFleet(o opts) (pem.FleetConfig, error) {
	cfg := pem.FleetConfig{
		Coalitions:        liveCoalitions,
		HomesPerCoalition: liveHomes,
		Windows:           liveWindows,
		StartHour:         liveStartHour,
	}
	churn := liveChurn()
	churn.Epochs = liveEpochs(o)
	seed, err := drawClear(o.seed, func(seed int64) ([]*pem.Trace, error) {
		c := cfg
		c.Seed = seed
		evo, err := dataset.Evolve(c, churn)
		if err != nil {
			return nil, err
		}
		traces := make([]*pem.Trace, len(evo.Epochs))
		for i, ef := range evo.Epochs {
			traces[i] = ef.Trace
		}
		return traces, nil
	})
	cfg.Seed = seed
	return cfg, err
}

func liveConfig(o opts, st pem.Store) pem.LiveGridConfig {
	seed := programSeed
	return pem.LiveGridConfig{
		Market: pem.Config{
			KeyBits:       liveKeyBits,
			Seed:          &seed,
			CryptoBackend: pem.BackendHybrid,
			Network:       pem.NetworkWAN,
		},
		Coalitions:              liveCoalitions,
		Partition:               pem.PartitionBalanced,
		MaxConcurrentCoalitions: runtime.NumCPU(),
		Epochs:                  liveEpochs(o),
		Churn:                   liveChurn(),
		Store:                   st,
	}
}

// cutStore records the WAL's length right after each epoch checkpoint
// lands, so a copy can be cut exactly at an epoch boundary.
type cutStore struct {
	pem.Store
	path string
	cuts map[int]int64
}

func (c *cutStore) PutCheckpoint(cp pem.Checkpoint) error {
	if err := c.Store.PutCheckpoint(cp); err != nil {
		return err
	}
	n, err := fileSize(c.path)
	if err != nil {
		return err
	}
	c.cuts[cp.Epoch] = n
	return nil
}

// liveEpoch is what the benchmark keeps of one delivered epoch.
type liveEpoch struct {
	epoch      int
	agents     int
	windows    int
	coalitions []coalitionDay
	rekey      time.Duration
	// duration is the epoch's wall time: rekey, trading and teardown.
	duration time.Duration
}

func keepEpoch(er *pem.EpochResult) liveEpoch {
	le := liveEpoch{epoch: er.Epoch, agents: er.Agents, windows: er.Windows, rekey: er.Rekey, duration: er.Duration}
	for i := range er.Coalitions {
		if cr := &er.Coalitions[i]; !cr.Folded {
			le.coalitions = append(le.coalitions, keepCoalition(cr))
		}
	}
	return le
}

// streamLive runs a live grid to its end, keeping every delivered epoch.
func streamLive(lg *pem.LiveGrid) (*pem.LiveGridResult, []liveEpoch, error) {
	var epochs []liveEpoch
	res, err := lg.Stream(context.Background(), func(er *pem.EpochResult) error {
		epochs = append(epochs, keepEpoch(er))
		return nil
	})
	return res, epochs, err
}

func setupLive(o opts, fleet pem.FleetConfig, st pem.Store) (*pem.LiveGrid, time.Duration, error) {
	start := time.Now()
	lg, err := pem.NewLiveGrid(liveConfig(o, st), fleet)
	if err != nil {
		return nil, 0, err
	}
	return lg, time.Since(start), nil
}

// cutCopy writes the first n bytes of the WAL at src to dst.
func cutCopy(src, dst string, n int64) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if int64(len(raw)) < n {
		return fmt.Errorf("WAL holds %d bytes, cut at %d", len(raw), n)
	}
	return os.WriteFile(dst, raw[:n], 0o644)
}

func runDurableLive(o opts, t *tally) (map[string]metric, error) {
	walPath := filepath.Join(o.scratch, "live.wal")
	fleet, err := liveFleet(o)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var lg *pem.LiveGrid
	for rep := 0; rep < setupReps; rep++ {
		var d time.Duration
		runtime.GC()
		if lg, d, err = setupLive(o, fleet, nil); err != nil {
			return nil, fmt.Errorf("durable-live setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	wal, err := pem.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	cs := &cutStore{Store: wal, path: walPath, cuts: map[int]int64{}}
	if lg, _, err = setupLive(o, fleet, cs); err != nil {
		wal.Close()
		return nil, err
	}

	cpu0 := cpuTime()
	res, epochs, err := streamLive(lg)
	cpu := cpuTime() - cpu0
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	t.add("epochs", liveEpochs(o), 0)
	if err != nil {
		return nil, fmt.Errorf("durable-live run: %w", err)
	}
	t.add("windows", res.Windows, 0)

	if err := checkLive(t, o, fleet, res, epochs, walPath); err != nil {
		return nil, err
	}

	// Resume: a copy of the WAL cut right after the last-but-one epoch's
	// checkpoint, as a process killed at that boundary would leave it.
	cutEpoch := liveEpochs(o) - 2
	cut, ok := cs.cuts[cutEpoch]
	if !ok {
		return nil, fmt.Errorf("no checkpoint recorded for epoch %d", cutEpoch)
	}
	path := filepath.Join(o.scratch, "resume.wal")
	if err := cutCopy(walPath, path, cut); err != nil {
		return nil, err
	}
	var resumes []float64
	for rep := 0; rep < liveResumeReps; rep++ {
		runtime.GC()
		start := time.Now()
		rlg, err := pem.Resume(path)
		d := time.Since(start)
		t.op("resumes", err)
		if err != nil {
			continue
		}
		resumes = append(resumes, ms(d))
		if rep == liveResumeReps-1 {
			err = checkResumed(t, rlg, cutEpoch, res, epochs)
		}
		if cerr := rlg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}

	walSize, err := fileSize(walPath)
	if err != nil {
		return nil, err
	}
	var lat, virt, rekeys, rates []float64
	var agents []int
	for _, le := range epochs {
		agents = append(agents, le.agents)
		rekeys = append(rekeys, ms(le.rekey))
		rates = append(rates, float64(le.windows)/le.duration.Seconds())
		for _, cd := range le.coalitions {
			for _, r := range cd.results {
				lat = append(lat, ms(r.Duration))
				virt = append(virt, ms(r.VirtualLatency))
			}
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	tailP, tail := tailPercentile(lat)
	fmt.Printf("durable-live: %d epochs, %d windows, %.2f windows/s over the whole run, tail = p%d, resumed from epoch %d, WAL %d B\n",
		len(epochs), res.Windows, float64(res.Windows)/res.Duration.Seconds(), tailP, cutEpoch, walSize)
	fmt.Printf("durable-live: agents per epoch %v, rekey per epoch %.0f ms, windows/s per epoch %.1f\n", agents, rekeys, rates)
	q1, q2, q3 := quartiles(resumes)
	fmt.Printf("durable-live: %d resumes, quartiles %.1f / %.1f / %.1f ms\n", len(resumes), q1, q2, q3)
	n := float64(res.Windows)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"window_p50_ms":        {median(lat), "ms"},
		"window_tail_ms":       {tail, "ms"},
		"windows_per_s":        {median(rates), "1/s"},
		"cpu_ms_per_window":    {ms(cpu) / n, "ms"},
		"bytes_per_window":     {float64(res.TotalBytes) / n, "B"},
		"virtual_window_ms":    {median(virt), "ms"},
		"rekey_p50_ms":         {median(rekeys), "ms"},
		"resume_ms":            {median(resumes), "ms"},
		"wal_bytes_per_window": {float64(walSize) / n, "B"},
		"peak_rss_mib":         {rss, "MiB"},
	}, nil
}

// checkLive checks every window of every epoch against the regenerated
// epoch inputs, every chain against its stored copy, and conservation.
func checkLive(t *tally, o opts, fleet pem.FleetConfig, res *pem.LiveGridResult, epochs []liveEpoch, walPath string) error {
	churn := liveChurn()
	churn.Epochs = liveEpochs(o)
	evo, err := dataset.Evolve(fleet, churn)
	if err != nil {
		return err
	}
	stored, err := storedChains(walPath)
	if err != nil {
		return err
	}
	params := pem.DefaultParams()
	t.check(len(epochs) == len(evo.Epochs), "%d of %d epochs delivered", len(epochs), len(evo.Epochs))
	for _, le := range epochs {
		tr := evo.Epochs[le.epoch].Trace
		for _, cd := range le.coalitions {
			sub, err := tr.Select(cd.members)
			if err != nil {
				return err
			}
			if err := checkCoalition(t, cd, sub, params); err != nil {
				return err
			}
			checkChain(t, cd.name, cd.ledger, stored[cd.name])
		}
	}
	t.check(math.Abs(res.EnergyImbalanceKWh) < 1e-6, "energy imbalance %g kWh", res.EnergyImbalanceKWh)
	t.check(math.Abs(res.PaymentImbalanceCents) < 1e-3, "payment imbalance %g cents", res.PaymentImbalanceCents)
	return nil
}

// checkResumed drives a resumed live grid to its end and compares its
// final positions and last-epoch chain heads with the uninterrupted run's.
func checkResumed(t *tally, lg *pem.LiveGrid, cutEpoch int, ref *pem.LiveGridResult, refEpochs []liveEpoch) error {
	t.check(lg.ResumedEpoch() == cutEpoch, "resumed at epoch %d, cut after %d", lg.ResumedEpoch(), cutEpoch)
	res, epochs, err := streamLive(lg)
	t.op("epochs", err)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	same := len(res.Positions) == len(ref.Positions)
	for i := 0; same && i < len(ref.Positions); i++ {
		same = res.Positions[i] == ref.Positions[i]
	}
	t.check(same, "resumed positions differ from the uninterrupted run's")
	if len(epochs) == 0 {
		t.check(false, "resumed run delivered no epoch")
		return nil
	}
	last, refLast := epochs[len(epochs)-1], refEpochs[len(refEpochs)-1]
	t.check(last.epoch == refLast.epoch && len(last.coalitions) == len(refLast.coalitions),
		"resumed run ended at epoch %d with %d coalitions, uninterrupted at %d with %d",
		last.epoch, len(last.coalitions), refLast.epoch, len(refLast.coalitions))
	for i := 0; i < len(last.coalitions) && i < len(refLast.coalitions); i++ {
		a, b := last.coalitions[i], refLast.coalitions[i]
		t.check(a.name == b.name && a.head == b.head, "chain head of %s after resume %s, uninterrupted %s", a.name, a.head, b.head)
	}
	return nil
}
