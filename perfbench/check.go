package main

import (
	"context"
	"fmt"
	"math"

	"github.com/pem-go/pem"
)

// The checks below recompute what a window's outcome must be from its
// inputs and the agents' public parameters, with the paper's equations
// written out here rather than called from the program. They compare
// against properties the method must have, never against stored output.

// roleEps is the method's off-market threshold: an agent whose net energy
// is within it of zero neither sells nor buys.
const roleEps = 1e-9

// Tolerances of the private protocols' fixed-point arithmetic (micro-unit
// energies, 1e-12-scaled reciprocals).
const (
	priceTol  = 1e-4 // cents/kWh
	energyTol = 1e-5 // kWh, absolute part
	relTol    = 1e-4 // relative part
)

func near(got, want, abs float64) bool {
	return math.Abs(got-want) <= abs+relTol*math.Abs(want)
}

// fixedRes is half the private protocols' fixed-point unit (1e-6 kWh). The
// protocols round each agent's net energy to that unit before classifying
// it, so an agent whose |net energy| lies between roleEps and fixedRes is a
// seller or a buyer by the method but off-market in the private run, and a
// seller there moves the Eq. 13 price by its preference weight alone.
// Whether a seeded draw holds such an agent depends on the seed, so the
// generated inputs avoid that band (drawClear) and probeFixedPoint shows
// the disagreement on fixed inputs in every hybrid-grid round instead.
const fixedRes = 0.5e-6

// nearZero reports whether any home of the traces has, in some window, a
// net energy between roleEps and fixedRes in magnitude.
func nearZero(traces ...*pem.Trace) bool {
	for _, tr := range traces {
		tr.Materialize()
		for h := range tr.Homes {
			for w := 0; w < tr.Windows; w++ {
				if a := math.Abs(tr.Gen[h][w] - tr.Load[h][w] - tr.Battery[h][w]); a > roleEps && a < fixedRes {
					return true
				}
			}
		}
	}
	return false
}

// drawClear returns the first of the seeds base, base+2³², base+2·2³², …
// whose draw holds no agent near zero (see fixedRes). It is deterministic:
// the same base always gives the same seed.
func drawClear(base int64, draw func(seed int64) ([]*pem.Trace, error)) (int64, error) {
	const attempts = 64
	for i := int64(0); i < attempts; i++ {
		seed := base + i<<32
		traces, err := draw(seed)
		if err != nil {
			return 0, err
		}
		if !nearZero(traces...) {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no draw of seed %d clear of the fixed-point band in %d attempts", base, attempts)
}

// expected is the independently derived shape of one window's outcome.
type expected struct {
	general        bool
	price          float64
	supply, demand float64
	sellers        map[string]float64 // agent → surplus
	buyers         map[string]float64 // agent → demand
}

// expect derives a window's market kind, price and coalitions from the
// inputs: Eq. 13 p̂ = sqrt(p_retail · Σk / Σ(g + 1 + ε·b − b)) over the
// sellers, Eq. 14 clamps it to [PriceFloor, PriceCeil].
func expect(agents []pem.Agent, inputs []pem.WindowInput, p pem.Params) expected {
	e := expected{sellers: map[string]float64{}, buyers: map[string]float64{}}
	var sumK, sumTerm float64
	for i, in := range inputs {
		net := in.Generation - in.Load - in.Battery
		switch {
		case net > roleEps:
			e.sellers[agents[i].ID] = net
			e.supply += net
			sumK += agents[i].K
			sumTerm += in.Generation + 1 + agents[i].Epsilon*in.Battery - in.Battery
		case net < -roleEps:
			e.buyers[agents[i].ID] = -net
			e.demand += -net
		}
	}
	e.general = e.supply < e.demand
	switch {
	case len(e.sellers) == 0:
		e.price = p.GridRetailPrice
	case !e.general:
		e.price = p.PriceFloor
	default:
		pHat := math.Sqrt(p.GridRetailPrice * sumK / sumTerm)
		e.price = math.Min(math.Max(pHat, p.PriceFloor), p.PriceCeil)
	}
	return e
}

// checkWindow runs every per-window output check on one result: kind,
// price, per-agent trade sums and individual rationality.
func checkWindow(t *tally, label string, agents []pem.Agent, inputs []pem.WindowInput, res *pem.WindowResult, p pem.Params) {
	e := expect(agents, inputs, p)
	t.check(res.Kind == pem.GeneralMarket == e.general,
		"%s: kind %v with supply %.6f, demand %.6f", label, res.Kind, e.supply, e.demand)
	t.check(near(res.Price, e.price, priceTol), "%s: price %.6f, Eq. 13–14 gives %.6f", label, res.Price, e.price)

	sold := map[string]float64{}
	bought := map[string]float64{}
	rational := true
	known := true
	for _, tr := range res.Trades {
		if _, ok := e.sellers[tr.Seller]; !ok {
			known = false
		}
		if _, ok := e.buyers[tr.Buyer]; !ok {
			known = false
		}
		sold[tr.Seller] += tr.Energy
		bought[tr.Buyer] += tr.Energy
		if tr.Energy > 0 {
			unit := tr.Payment / tr.Energy
			if unit > p.GridRetailPrice+priceTol || unit < p.GridSellPrice-priceTol {
				rational = false
			}
		}
	}
	t.check(known, "%s: a trade names an agent outside its coalition", label)
	t.check(rational, "%s: a trade prices energy outside [GridSellPrice, GridRetailPrice]", label)
	if len(e.sellers) == 0 || len(e.buyers) == 0 {
		t.check(len(res.Trades) == 0, "%s: %d trades in a one-sided market", label, len(res.Trades))
		return
	}
	// General market: every seller sells its whole surplus, buyers share
	// the supply pro rata. Extreme market: every buyer's demand is met,
	// sellers share it pro rata.
	ok := true
	for id, s := range e.sellers {
		want := s
		if !e.general {
			want = s * e.demand / e.supply
		}
		if !near(sold[id], want, energyTol) {
			ok = false
			t.check(false, "%s: seller %s sold %.7f, want %.7f", label, id, sold[id], want)
		}
	}
	for id, d := range e.buyers {
		want := d
		if e.general {
			want = d * e.supply / e.demand
		}
		if !near(bought[id], want, energyTol) {
			ok = false
			t.check(false, "%s: buyer %s bought %.7f, want %.7f", label, id, bought[id], want)
		}
	}
	if ok {
		t.check(true, "")
	}
}

// checkChain verifies a ledger and that the chain rebuilt from the stored
// blocks verifies and ends on the same head.
func checkChain(t *tally, label string, live *pem.Ledger, stored []pem.Block) {
	if live != nil {
		t.check(live.Verify() == nil, "%s: live ledger does not verify", label)
	}
	rebuilt, err := pem.LedgerFromBlocks(stored)
	if err != nil {
		t.check(false, "%s: stored chain does not rebuild: %v", label, err)
		return
	}
	t.check(rebuilt.Verify() == nil, "%s: rebuilt chain does not verify", label)
	if live != nil {
		t.check(rebuilt.Head().Hash == live.Head().Hash, "%s: rebuilt head differs from the live ledger's", label)
	}
}

// probeAgents and probeInputs are one fixed general-market window: a
// seller with 0.2 kWh of surplus, a seller with 2.07e-7 kWh (inside the
// fixed-point band, see fixedRes) and two buyers. By the method both
// sellers are in the coalition and Eq. 13–14 give 93.45 cents/kWh; without
// the second seller the price clamps to the 90.00 floor.
var (
	probeAgents = []pem.Agent{
		{ID: "probe-seller", K: 60, Epsilon: 0.9},
		{ID: "probe-edge", K: 100, Epsilon: 0.9},
		{ID: "probe-buyer-a", K: 80, Epsilon: 0.9},
		{ID: "probe-buyer-b", K: 90, Epsilon: 0.9},
	}
	probeInputs = []pem.WindowInput{
		{Generation: 0.2},
		{Generation: 2.07e-7},
		{Load: 0.5},
		{Load: 0.4},
	}
)

// probeFixedPoint runs the fixed probe window through a private market and
// compares its kind and price with the method. A disagreement is the
// program's fixed-point classification fault (see fixedRes); it is counted
// as a failed probe operation, the same in every round whatever the seed.
func probeFixedPoint(t *tally, m *pem.Market, window int) {
	res, err := m.RunWindow(context.Background(), window, probeInputs)
	if err == nil {
		e := expect(probeAgents, probeInputs, pem.DefaultParams())
		if res.Kind == pem.GeneralMarket != e.general || !near(res.Price, e.price, priceTol) {
			err = fmt.Errorf("fixed probe window: kind %v price %.4f, the method gives general=%v price %.4f",
				res.Kind, res.Price, e.general, e.price)
		}
	}
	t.op("fixed-point-probes", err)
}
