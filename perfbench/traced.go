package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/dataset"
)

// The traced runs: each workload's inputs drive (1) a phase pass of
// standalone Paillier parties under the tracing wrapper and (2) the
// primitive spans at the workload's sizes. The spans are written to
// .bench_build/spans-<workload>.jsonl when the run ends.

// traceClosedWindows is how many input windows a closed-loop phase pass
// runs (each twice: untraced, then traced).
const traceClosedWindows = 16

// traceLiveWindows is the day length of the two-epoch live grid behind
// grid.trading_ms.
const traceLiveWindows = 4

func traced(o opts, t *tally, agents []pem.Agent, inputs [][]pem.WindowInput, period time.Duration, sz layerSizes) (map[string]metric, error) {
	ctx := context.Background()
	pf, err := newPhaseFleet(ctx, programSeed, sz.keyBits, agents)
	if err != nil {
		return nil, err
	}
	ps, err := phasePass(ctx, pf, t, inputs, period)
	pf.close()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	ps.metrics(m)
	if err := layerMetrics(o, t, pf.rec, sz, m); err != nil {
		return nil, err
	}
	ps.report(o.workload)
	path := filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
	if err := pf.rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(pf.rec.spans), path)
	return m, nil
}

// coalitionInputs splits a trace into balanced coalitions and returns
// every coalition's window inputs (the first windows of the day) together
// with the coalitions as sub-traces.
func coalitionInputs(tr *pem.Trace, coalitions int, seed int64, windows int) ([]clearInput, []*pem.Trace, error) {
	g, err := pem.NewGrid(pem.GridConfig{Coalitions: coalitions, Partition: pem.PartitionBalanced, PartitionSeed: seed}, tr)
	if err != nil {
		return nil, nil, err
	}
	index := make(map[string]int, len(tr.Homes))
	for i, h := range tr.Homes {
		index[h.ID] = i
	}
	var out []clearInput
	var subs []*pem.Trace
	for _, ids := range g.Partition() {
		members := make([]int, len(ids))
		for i, id := range ids {
			members[i] = index[id]
		}
		sub, err := tr.Select(members)
		if err != nil {
			return nil, nil, err
		}
		subs = append(subs, sub)
		for w := 0; w < windows && w < sub.Windows; w++ {
			in, err := sub.WindowInputs(w)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, clearInput{agents: sub.Agents(), inputs: in})
		}
	}
	return out, subs, nil
}

// windowInputs returns the first n windows' inputs (all, if the day is
// shorter).
func windowInputs(tr *pem.Trace, n int) ([][]pem.WindowInput, error) {
	out := make([][]pem.WindowInput, min(n, tr.Windows))
	for w := range out {
		var err error
		if out[w], err = tr.WindowInputs(w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func tracePaced(o opts, t *tally) (map[string]metric, error) {
	tr, err := pacedTrace(o)
	if err != nil {
		return nil, err
	}
	all, err := windowInputs(tr, tr.Windows)
	if err != nil {
		return nil, err
	}
	agents := tr.Agents()
	sz := layerSizes{
		keyBits: pacedKeyBits,
		batch:   pacedHomes,
		synth:   func() error { _, err := pacedTrace(o); return err },
		fleet:   pem.FleetConfig{Coalitions: 1, HomesPerCoalition: pacedHomes, Windows: tr.Windows, Seed: o.seed, StartHour: pacedEarliestStart},
		churn:   liveChurn(),
		live: pem.LiveGridConfig{
			Market:     pacedConfig(o, nil),
			Coalitions: 1,
			Epochs:     2,
			Churn:      liveChurn(),
		},
		liveFleet: pem.FleetConfig{Coalitions: 1, HomesPerCoalition: pacedHomes, Windows: traceLiveWindows, Seed: o.seed, StartHour: pacedEarliestStart},
	}
	for _, in := range all {
		sz.windows = append(sz.windows, clearInput{agents: agents, inputs: in})
	}
	return traced(o, t, agents, all[:len(all)/2], pacedPeriod, sz)
}

func traceHybridGrid(o opts, t *tally) (map[string]metric, error) {
	fc, err := gridFleetConfig(o, 0)
	if err != nil {
		return nil, err
	}
	fleet, err := pem.GenerateFleet(fc)
	if err != nil {
		return nil, err
	}
	wins, subs, err := coalitionInputs(fleet, gridCoalitions, programSeed, gridWindows)
	if err != nil {
		return nil, err
	}
	inputs, err := windowInputs(subs[0], traceClosedWindows)
	if err != nil {
		return nil, err
	}
	live := liveConfig(o, nil)
	live.Market = gridConfig(o, 0, nil).Market
	live.Coalitions, live.Epochs = gridCoalitions, 2
	lf := fc
	lf.Windows = traceLiveWindows
	sz := layerSizes{
		keyBits:   gridKeyBits,
		batch:     gridHomes,
		windows:   wins,
		synth:     func() error { _, err := pem.GenerateFleet(fc); return err },
		fleet:     fc,
		churn:     liveChurn(),
		live:      live,
		liveFleet: lf,
	}
	return traced(o, t, subs[0].Agents(), inputs, 0, sz)
}

func traceDurableLive(o opts, t *tally) (map[string]metric, error) {
	fleet, err := liveFleet(o)
	if err != nil {
		return nil, err
	}
	churn := liveChurn()
	churn.Epochs = liveEpochs(o)
	evo, err := dataset.Evolve(fleet, churn)
	if err != nil {
		return nil, err
	}
	var wins []clearInput
	var first *pem.Trace
	for _, ef := range evo.Epochs {
		w, subs, err := coalitionInputs(ef.Trace, liveCoalitions, programSeed, liveWindows)
		if err != nil {
			return nil, err
		}
		wins = append(wins, w...)
		if first == nil {
			first = subs[0]
		}
	}
	inputs, err := windowInputs(first, traceClosedWindows)
	if err != nil {
		return nil, err
	}
	live := liveConfig(o, nil)
	live.Epochs = 2
	lf := fleet
	lf.Windows = traceLiveWindows
	sz := layerSizes{
		keyBits:   liveKeyBits,
		batch:     liveHomes,
		windows:   wins,
		synth:     func() error { _, err := pem.GenerateFleet(fleet); return err },
		fleet:     fleet,
		churn:     liveChurn(),
		live:      live,
		liveFleet: lf,
	}
	return traced(o, t, first.Agents(), inputs, 0, sz)
}
