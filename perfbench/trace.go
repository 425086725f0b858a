package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pem-go/pem"
	"github.com/pem-go/pem/internal/core"
	"github.com/pem-go/pem/internal/netem"
	"github.com/pem-go/pem/internal/transport"
)

// span is one traced interval: a window, a message send or receive, or a
// primitive call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Window int    `json:"window"`
	Party  string `json:"party,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Cmp    bool   `json:"cmp,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory; write dumps them once, at the end.
type recorder struct {
	t0      time.Time
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	windows map[int]int // window number → its span ID
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), windows: map[int]int{}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// window records a window's span; message spans of that window hang off it.
func (r *recorder) window(w int, start, end time.Time) {
	id := r.add(span{Parent: -1, Name: "window", Window: w, Start: r.since(start), End: r.since(end)})
	r.mu.Lock()
	r.windows[w] = id
	r.mu.Unlock()
}

// timed runs f inside a root span named after the layer function it calls.
func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	r.add(span{Parent: -1, Name: name, Window: -1, Start: r.since(start), End: r.since(end)})
	return end.Sub(start), err
}

// write dumps every span as one JSON object per line, linking message
// spans to their window's span.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if s.Phase != "" {
			if id, ok := r.windows[s.Window]; ok {
				s.Parent = id
			}
		}
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn is the benchmark's transport.Conn wrapper: while the recorder
// is on it stamps every Send and Recv with the protocol phase taken from
// the message tag. It exposes Inner so the protocol still finds the
// network-emulation layer beneath it.
type tracedConn struct {
	inner transport.Conn
	rec   *recorder
}

// Inner returns the wrapped connection.
func (c *tracedConn) Inner() transport.Conn { return c.inner }

// Party returns the local party ID.
func (c *tracedConn) Party() string { return c.inner.Party() }

// Close closes the wrapped connection.
func (c *tracedConn) Close() error { return c.inner.Close() }

// Send forwards a message, recording its span and wire size.
func (c *tracedConn) Send(ctx context.Context, to, tag string, payload []byte) error {
	if !c.rec.on.Load() {
		return c.inner.Send(ctx, to, tag, payload)
	}
	size := transport.WireSize(c.Party(), to, tag, payload)
	start := time.Now()
	err := c.inner.Send(ctx, to, tag, payload)
	c.record("send", tag, start, size)
	return err
}

// Recv forwards a receive, recording how long the party was blocked.
func (c *tracedConn) Recv(ctx context.Context, from, tag string) ([]byte, error) {
	if !c.rec.on.Load() {
		return c.inner.Recv(ctx, from, tag)
	}
	start := time.Now()
	b, err := c.inner.Recv(ctx, from, tag)
	c.record("recv", tag, start, 0)
	return b, err
}

// RecvAny forwards an any-sender receive, recording the blocked time.
func (c *tracedConn) RecvAny(ctx context.Context, tag string, froms []string) (string, []byte, error) {
	if !c.rec.on.Load() {
		return c.inner.RecvAny(ctx, tag, froms)
	}
	start := time.Now()
	from, b, err := c.inner.RecvAny(ctx, tag, froms)
	c.record("recv", tag, start, 0)
	return from, b, err
}

func (c *tracedConn) record(name, tag string, start time.Time, size int) {
	_, w, rest, ok := transport.ParseScopedWindowTag(tag)
	if !ok {
		return
	}
	phase := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		phase = rest[:i]
	}
	c.rec.add(span{
		Name: name, Window: w, Party: c.Party(), Phase: phase,
		Cmp:   strings.HasPrefix(rest, "pme/cmp"),
		Bytes: size, Start: c.rec.since(start), End: c.rec.since(time.Now()),
	})
}

// phaseFleet is a fleet of standalone Paillier parties, each on its own
// bus endpoint under WAN emulation and the tracing wrapper.
type phaseFleet struct {
	rec     *recorder
	net     *netem.Network
	parties []*core.Party
}

func newPhaseFleet(ctx context.Context, seed int64, keyBits int, agents []pem.Agent) (*phaseFleet, error) {
	topo, err := netem.Preset(pem.NetworkWAN)
	if err != nil {
		return nil, err
	}
	bus := transport.NewBus(nil)
	pf := &phaseFleet{rec: newRecorder()}
	if pf.net, err = netem.New(topo, seed, bus.Metrics()); err != nil {
		return nil, err
	}
	cfg := core.Config{KeyBits: keyBits, Seed: &seed, PreEncrypt: true}
	ids := make([]string, len(agents))
	for i, a := range agents {
		ids[i] = a.ID
		conn, err := bus.Register(a.ID)
		if err != nil {
			pf.close()
			return nil, err
		}
		p, err := core.NewStandaloneParty(cfg, a, &tracedConn{inner: pf.net.Wrap(conn), rec: pf.rec})
		if err != nil {
			pf.close()
			return nil, err
		}
		pf.parties = append(pf.parties, p)
	}
	errs := make([]error, len(pf.parties))
	var wg sync.WaitGroup
	for i, p := range pf.parties {
		wg.Add(1)
		go func(i int, p *core.Party) {
			defer wg.Done()
			errs[i] = p.ExchangeKeys(ctx, ids)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			pf.close()
			return nil, err
		}
	}
	return pf, nil
}

func (pf *phaseFleet) close() {
	for _, p := range pf.parties {
		p.Close()
	}
}

func (pf *phaseFleet) poolStats() pem.PoolStats {
	var agg pem.PoolStats
	for _, p := range pf.parties {
		st := p.PoolStats()
		agg.Ready += st.Ready
		agg.Target += st.Target
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.IdleRefills += st.IdleRefills
		agg.Retries += st.Retries
	}
	return agg
}

// runWindow runs one window on every party concurrently and returns the
// emulated round count.
func (pf *phaseFleet) runWindow(ctx context.Context, w int, inputs []pem.WindowInput) (int, error) {
	// A failing party cancels the window so its peers stop waiting on it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(pf.parties))
	var wg sync.WaitGroup
	for i, p := range pf.parties {
		wg.Add(1)
		go func(i int, p *core.Party) {
			defer wg.Done()
			if _, errs[i] = p.RunTradingWindow(ctx, w, inputs[i]); errs[i] != nil {
				cancel()
			}
		}(i, p)
	}
	wg.Wait()
	_, rounds := pf.net.WindowStats("", w)
	pf.net.ReleaseWindow("", w)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return rounds, nil
}

// phaseStats are the per-window figures of the traced windows.
type phaseStats struct {
	traced, untraced []float64 // window latency, ms
	windows          int       // traced windows
	role, pme, cmp   float64   // ms per window, summed over traced windows
	pp, pd, wait     float64
	msgs             float64
	bytes            map[string]float64
	rounds           []float64
	pool0, pool1     pem.PoolStats
}

// phasePass runs every input window twice, alternating untraced and traced
// (so drift hits both alike), and attributes the traced windows' wall time
// to protocol phases. With a period, windows are released on it (open
// loop) and timed from their due time; without, back to back.
func phasePass(ctx context.Context, pf *phaseFleet, t *tally, inputs [][]pem.WindowInput, period time.Duration) (*phaseStats, error) {
	// Warm-up: the first window creates the parties' nonce pools.
	_, err := pf.runWindow(ctx, 0, inputs[0])
	t.op("windows", err)
	if err != nil {
		return nil, err
	}
	ps := &phaseStats{bytes: map[string]float64{}}
	ps.pool0 = pf.poolStats()
	start := time.Now()
	for i := 0; i < 2*len(inputs); i++ {
		w := i + 1
		due := time.Now()
		if period > 0 {
			due = start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
		}
		traced := i%2 == 1
		pf.rec.on.Store(traced)
		began := time.Now()
		rounds, err := pf.runWindow(ctx, w, inputs[i/2])
		end := time.Now()
		pf.rec.on.Store(false)
		t.op("windows", err)
		if err != nil {
			return nil, err
		}
		if !traced {
			ps.untraced = append(ps.untraced, ms(end.Sub(due)))
			continue
		}
		ps.traced = append(ps.traced, ms(end.Sub(due)))
		ps.rounds = append(ps.rounds, float64(rounds))
		pf.rec.window(w, began, end)
	}
	ps.pool1 = pf.poolStats()
	ps.attribute(pf.rec)
	return ps, nil
}

// attribute splits each traced window's wall time along its critical path:
// a phase's time runs from the last message event of the phase before it
// to its own last event, so the phases of one window add up to the window
// (less the final local computation after the last message). The
// comparator's time is the span of its own messages inside pme.
func (ps *phaseStats) attribute(rec *recorder) {
	type win struct {
		start, end int64
		last       map[string]int64
		cmpFirst   int64
		cmpLast    int64
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	wins := map[int]*win{}
	for w, id := range rec.windows {
		s := rec.spans[id]
		wins[w] = &win{start: s.Start, end: s.End, last: map[string]int64{}, cmpFirst: -1}
	}
	for _, s := range rec.spans {
		if s.Phase == "" {
			continue
		}
		wn := wins[s.Window]
		if wn == nil {
			continue
		}
		if s.End > wn.last[s.Phase] {
			wn.last[s.Phase] = s.End
		}
		if s.Cmp {
			if wn.cmpFirst < 0 || s.Start < wn.cmpFirst {
				wn.cmpFirst = s.Start
			}
			if s.End > wn.cmpLast {
				wn.cmpLast = s.End
			}
		}
		switch s.Name {
		case "send":
			ps.msgs++
			ps.bytes[s.Phase] += float64(s.Bytes)
		case "recv":
			ps.wait += float64(s.End-s.Start) / 1e6
		}
	}
	for _, wn := range wins {
		ps.windows++
		prev := wn.start
		step := func(phase string) float64 {
			last, ok := wn.last[phase]
			if !ok || last < prev {
				return 0
			}
			d := float64(last-prev) / 1e6
			prev = last
			return d
		}
		ps.role += step("role")
		ps.pme += step("pme")
		ps.pp += step("pp")
		ps.pd += step("pd")
		if wn.cmpFirst >= 0 {
			ps.cmp += float64(wn.cmpLast-wn.cmpFirst) / 1e6
		}
	}
}

// metrics returns the phase-pass per-layer metrics, per traced window.
func (ps *phaseStats) metrics(m map[string]metric) {
	n := float64(ps.windows)
	m["core.role_ms"] = metric{ps.role / n, "ms"}
	m["core.pme_ms"] = metric{ps.pme / n, "ms"}
	m["core.pme_cmp_ms"] = metric{ps.cmp / n, "ms"}
	m["core.pp_ms"] = metric{ps.pp / n, "ms"}
	m["core.pd_ms"] = metric{ps.pd / n, "ms"}
	m["core.recv_wait_ms"] = metric{ps.wait / n, "ms"}
	m["transport.msgs_per_window"] = metric{ps.msgs / n, "count"}
	for _, ph := range []string{"role", "pme", "pp", "pd"} {
		m["transport.phase_bytes."+ph] = metric{ps.bytes[ph] / n, "B"}
	}
	m["netem.rounds_per_window"] = metric{median(ps.rounds), "count"}
	hits := float64(ps.pool1.Hits - ps.pool0.Hits)
	misses := float64(ps.pool1.Misses - ps.pool0.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	all := float64(len(ps.traced) + len(ps.untraced))
	m["paillier.pool_hit_ratio"] = metric{ratio, "ratio"}
	m["paillier.pool_refills_per_window"] = metric{float64(ps.pool1.IdleRefills-ps.pool0.IdleRefills) / all, "count"}
	m["paillier.pool_retries"] = metric{float64(ps.pool1.Retries - ps.pool0.Retries), "count"}
}

// report prints the traced-versus-untraced comparison.
func (ps *phaseStats) report(label string) {
	n := float64(ps.windows)
	sum := (ps.role + ps.pme + ps.pp + ps.pd) / n
	var mean float64
	for _, v := range ps.traced {
		mean += v
	}
	mean /= float64(len(ps.traced))
	fmt.Printf("%s traced run: %d traced + %d untraced windows on standalone Paillier parties\n",
		label, len(ps.traced), len(ps.untraced))
	fmt.Printf("  core phase sum %.3f ms/window (mean traced window %.3f ms); traced window_p50_ms %.3f, untraced %.3f, tracing overhead %.3f ms (%.1f%%)\n",
		sum, mean, median(ps.traced), median(ps.untraced),
		median(ps.traced)-median(ps.untraced), 100*(median(ps.traced)/median(ps.untraced)-1))
}
