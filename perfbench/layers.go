package main

import (
	"context"
	"fmt"
	"math/big"
	mrand "math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/dataset"
	"github.com/pem-go/pem/internal/gc"
	"github.com/pem-go/pem/internal/ledger"
	"github.com/pem-go/pem/internal/market"
	"github.com/pem-go/pem/internal/ot"
	"github.com/pem-go/pem/internal/paillier"
	"github.com/pem-go/pem/internal/store"
	"github.com/pem-go/pem/internal/transport"
)

// layerSizes are one workload's sizes for the primitive spans: every
// primitive is timed by calling the layer's public function from here, at
// the sizes the workload drives it with.
type layerSizes struct {
	keyBits int
	// batch is the ciphertext count of one batched decryption: the
	// coalition size.
	batch int
	// windows are every (coalition, window) clearing input of the
	// workload's day, in order; they size the market, ledger and store
	// spans.
	windows []clearInput
	// synth is the workload's input synthesis (dataset.fleet_ms).
	synth func() error
	// fleet and churn are evolved for dataset.evolve_ms.
	fleet pem.FleetConfig
	churn pem.ChurnConfig
	// live is a two-epoch live grid of the workload's fleet and backend,
	// for grid.trading_ms.
	live      pem.LiveGridConfig
	liveFleet pem.FleetConfig
}

type clearInput struct {
	agents []pem.Agent
	inputs []pem.WindowInput
}

// Repetitions of the primitive spans (medians are reported).
const (
	slowReps   = 5  // keygen, OT, GC, chain verify, replay
	fastReps   = 40 // single Paillier operations
	batchReps  = 10
	roundTrips = 2000
	syncReps   = 20
)

func timedReps(rec *recorder, name string, n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := rec.timed(name, func() error { return f(i) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// pair runs the two sides of a two-party exchange over bus endpoints.
func pair(ctx context.Context, a, b transport.Conn, left func(transport.Conn) error, right func(transport.Conn) error) error {
	var wg sync.WaitGroup
	var lerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		lerr = left(a)
	}()
	rerr := right(b)
	wg.Wait()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// layerMetrics times every primitive span at the workload's sizes.
func layerMetrics(o opts, t *tally, rec *recorder, sz layerSizes, m map[string]metric) error {
	ctx := context.Background()
	rng := mrand.New(mrand.NewSource(programSeed))
	bus := transport.NewBus(nil)
	a, b := bus.MustRegister("a"), bus.MustRegister("b")

	// internal/ot: the comparator's 64 label transfers.
	const bits = 64
	pairs := make([]ot.Pair, bits)
	choices := make([]bool, bits)
	for i := range pairs {
		pairs[i] = ot.Pair{M0: make([]byte, gc.LabelSize), M1: make([]byte, gc.LabelSize)}
		rng.Read(pairs[i].M0)
		rng.Read(pairs[i].M1)
		choices[i] = rng.Intn(2) == 1
	}
	grp := ot.DefaultGroup()
	base, err := timedReps(rec, "ot.base_compare", slowReps, func(i int) error {
		s := fmt.Sprintf("bench/ot/base/%d", i)
		ra, rb := mrand.New(mrand.NewSource(programSeed+int64(i))), mrand.New(mrand.NewSource(-programSeed-int64(i)))
		return pair(ctx, a, b,
			func(c transport.Conn) error { return ot.SendBase(ctx, c, "b", s, grp, ra, pairs) },
			func(c transport.Conn) error { _, err := ot.RecvBase(ctx, c, "a", s, grp, rb, choices); return err })
	})
	if err != nil {
		return err
	}
	iknp, err := timedReps(rec, "ot.iknp_compare", slowReps, func(i int) error {
		s := fmt.Sprintf("bench/ot/iknp/%d", i)
		ra, rb := mrand.New(mrand.NewSource(programSeed+int64(i))), mrand.New(mrand.NewSource(-programSeed-int64(i)))
		return pair(ctx, a, b,
			func(c transport.Conn) error { return ot.SendExtension(ctx, c, "b", s, grp, ra, pairs) },
			func(c transport.Conn) error {
				_, err := ot.RecvExtension(ctx, c, "a", s, grp, rb, choices)
				return err
			})
	})
	if err != nil {
		return err
	}
	m["ot.base_compare_ms"] = metric{median(base), "ms"}
	m["ot.iknp_compare_ms"] = metric{median(iknp), "ms"}

	// internal/gc: the 64-bit secure comparison, garbler against evaluator.
	cmp, err := timedReps(rec, "gc.compare", slowReps, func(i int) error {
		s := fmt.Sprintf("bench/gc/%d", i)
		x, y := rng.Uint64(), rng.Uint64()
		var got gc.CompareResult
		err := pair(ctx, a, b,
			func(c transport.Conn) error {
				r, err := gc.SecureCompareGarbler(ctx, c, "b", s, x, bits,
					gc.ProtocolOptions{Random: mrand.New(mrand.NewSource(programSeed + int64(i)))})
				got = r
				return err
			},
			func(c transport.Conn) error {
				_, err := gc.SecureCompareEvaluator(ctx, c, "a", s, y, bits,
					gc.ProtocolOptions{Random: mrand.New(mrand.NewSource(-programSeed - int64(i)))})
				return err
			})
		if err == nil {
			want := gc.NotGreater
			if x > y {
				want = gc.LeftGreater
			}
			t.check(got == want, "gc compare %d vs %d gave %v", x, y, got)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["gc.compare_ms"] = metric{median(cmp), "ms"}

	if err := paillierMetrics(t, rec, sz, m); err != nil {
		return err
	}

	// internal/transport: one bus round trip of a ciphertext-sized frame.
	frame := make([]byte, 2*sz.keyBits/8)
	rng.Read(frame)
	d, err := rec.timed("transport.send_recv", func() error {
		for i := 0; i < roundTrips; i++ {
			if err := a.Send(ctx, "b", "bench/ping", frame); err != nil {
				return err
			}
			if _, err := b.Recv(ctx, "a", "bench/ping"); err != nil {
				return err
			}
			if err := b.Send(ctx, "a", "bench/pong", frame); err != nil {
				return err
			}
			if _, err := a.Recv(ctx, "b", "bench/pong"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["transport.send_recv_us"] = metric{us(d) / roundTrips, "us"}

	if err := chainMetrics(o, t, rec, sz, m); err != nil {
		return err
	}
	return fleetMetrics(t, rec, sz, m)
}

// paillierMetrics times the internal/paillier primitives.
func paillierMetrics(t *tally, rec *recorder, sz layerSizes, m map[string]metric) error {
	var sk *paillier.PrivateKey
	keygen, err := timedReps(rec, "paillier.keygen", slowReps, func(i int) error {
		k, err := paillier.GenerateKey(mrand.New(mrand.NewSource(programSeed*31+int64(i))), sz.keyBits)
		sk = k
		return err
	})
	if err != nil {
		return err
	}
	m["paillier.keygen_ms"] = metric{median(keygen), "ms"}
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(programSeed))
	msgs := make([]*big.Int, fastReps)
	cts := make([]*paillier.Ciphertext, fastReps)
	for i := range msgs {
		msgs[i] = big.NewInt(rng.Int63n(1 << 40))
	}
	enc, err := timedReps(rec, "paillier.encrypt", fastReps, func(i int) error {
		c, err := pk.Encrypt(rng, msgs[i])
		cts[i] = c
		return err
	})
	if err != nil {
		return err
	}
	ok := true
	dec, err := timedReps(rec, "paillier.decrypt", fastReps, func(i int) error {
		v, err := sk.Decrypt(cts[i])
		if err == nil && v.Cmp(msgs[i]) != 0 {
			ok = false
		}
		return err
	})
	if err != nil {
		return err
	}
	t.check(ok, "paillier decrypt does not invert encrypt")
	k := big.NewInt(rng.Int63n(1<<30) + 2)
	mul, err := timedReps(rec, "paillier.scalar_mul", fastReps, func(i int) error {
		_, err := pk.ScalarMul(cts[i], k)
		return err
	})
	if err != nil {
		return err
	}
	m["paillier.encrypt_us"] = metric{1000 * median(enc), "us"}
	m["paillier.decrypt_us"] = metric{1000 * median(dec), "us"}
	m["paillier.scalar_mul_us"] = metric{1000 * median(mul), "us"}

	workers := paillier.NewWorkers(runtime.NumCPU())
	defer workers.Release()
	n := sz.batch
	if n > len(cts) {
		n = len(cts)
	}
	batch, err := timedReps(rec, "paillier.decrypt_batch", batchReps, func(int) error {
		_, err := sk.DecryptBatch(workers, cts[:n])
		return err
	})
	if err != nil {
		return err
	}
	m["paillier.decrypt_batch_us"] = metric{1000 * median(batch) / float64(n), "us"}
	return nil
}

// chainMetrics times the market, ledger and store layers over the
// workload's windows: clear every window, chain every clearing, persist
// every block.
func chainMetrics(o opts, t *tally, rec *recorder, sz layerSizes, m map[string]metric) error {
	params := pem.DefaultParams()
	clr := new(market.Clearing)
	l := ledger.New()
	var clears, appends []float64
	blocks := make([]ledger.Block, 0, len(sz.windows))
	for w, in := range sz.windows {
		d, err := rec.timed("market.clear_into", func() error { return market.ClearInto(clr, in.agents, in.inputs, params) })
		if err != nil {
			return err
		}
		clears = append(clears, us(d))
		records := ledger.RecordsFromTrades(clr.Trades)
		var blk ledger.Block
		d, err = rec.timed("ledger.append", func() error {
			var err error
			blk, err = l.Append(w, clr.Price, records)
			return err
		})
		if err != nil {
			return err
		}
		appends = append(appends, us(d))
		blocks = append(blocks, blk)
	}
	verify, err := timedReps(rec, "ledger.verify", slowReps, func(int) error { return l.Verify() })
	if err != nil {
		return err
	}
	m["market.clear_us"] = metric{median(clears), "us"}
	m["ledger.append_us"] = metric{median(appends), "us"}
	m["ledger.verify_ms"] = metric{median(verify), "ms"}

	path := filepath.Join(o.scratch, "layers.wal")
	wal, err := store.OpenWAL(path)
	if err != nil {
		return err
	}
	var storeAppends, syncs []float64
	genesis, err := l.Block(0)
	if err == nil {
		err = wal.AppendBlock("bench", genesis)
	}
	for i := 0; err == nil && i < len(blocks); i++ {
		var d time.Duration
		d, err = rec.timed("store.append_block", func() error { return wal.AppendBlock("bench", blocks[i]) })
		storeAppends = append(storeAppends, us(d))
		if err == nil && i < syncReps {
			d, err = rec.timed("store.sync", wal.Sync)
			syncs = append(syncs, ms(d))
		}
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var stored []ledger.Block
	replay, err := timedReps(rec, "store.open_wal", slowReps, func(int) error {
		w, err := store.OpenWAL(path)
		if err != nil {
			return err
		}
		stored, err = w.Blocks("bench")
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	rebuilt, err := ledger.FromBlocks(stored)
	t.check(err == nil && rebuilt.Head().Hash == l.Head().Hash, "replayed chain differs from the appended one")
	m["store.append_us"] = metric{median(storeAppends), "us"}
	m["store.sync_ms"] = metric{median(syncs), "ms"}
	m["store.replay_ms"] = metric{median(replay), "ms"}
	return nil
}

// fleetMetrics times input synthesis and churn evolution, and one small
// live grid's per-epoch trading phase.
func fleetMetrics(t *tally, rec *recorder, sz layerSizes, m map[string]metric) error {
	synth, err := timedReps(rec, "dataset.generate", slowReps, func(int) error { return sz.synth() })
	if err != nil {
		return err
	}
	churn := sz.churn
	churn.Epochs = sz.live.Epochs
	evolve, err := timedReps(rec, "dataset.evolve", slowReps, func(int) error {
		_, err := dataset.Evolve(sz.fleet, churn)
		return err
	})
	if err != nil {
		return err
	}
	m["dataset.fleet_ms"] = metric{median(synth), "ms"}
	m["dataset.evolve_ms"] = metric{median(evolve), "ms"}

	lg, err := pem.NewLiveGrid(sz.live, sz.liveFleet)
	if err != nil {
		return err
	}
	var trading []float64
	_, err = rec.timed("grid.stream_live", func() error {
		_, err := lg.Stream(context.Background(), func(er *pem.EpochResult) error {
			trading = append(trading, ms(er.Trading))
			t.add("epochs", 1, 0)
			t.add("windows", er.Windows, 0)
			return nil
		})
		return err
	})
	if err != nil {
		t.op("epochs", err)
		return err
	}
	m["grid.trading_ms"] = metric{median(trading), "ms"}
	return nil
}
