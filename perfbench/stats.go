package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tally counts the operations a run attempted and how many failed, per
// kind (set-ups, windows, coalition-days, epochs, resumes, fixed-point
// probes, output checks).
type tally struct {
	kinds []string
	att   map[string]int
	fail  map[string]int
	notes []string
}

// kindChecks is the tally kind of output checks; a failed check makes the
// run incorrect rather than counting as a failed operation.
const kindChecks = "checks"

func (t *tally) add(kind string, attempted, failed int) {
	if t.att == nil {
		t.att = map[string]int{}
		t.fail = map[string]int{}
	}
	if _, ok := t.att[kind]; !ok {
		t.kinds = append(t.kinds, kind)
	}
	t.att[kind] += attempted
	t.fail[kind] += failed
}

// check records one output check; a false ok is reported with its reason.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.add(kindChecks, 1, 0)
		return
	}
	t.add(kindChecks, 1, 1)
	if len(t.notes) < 20 {
		t.notes = append(t.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// op records one operation's outcome; a failure is reported with its error.
func (t *tally) op(kind string, err error) {
	if err == nil {
		t.add(kind, 1, 0)
		return
	}
	t.add(kind, 1, 1)
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf("%s failed: %v", kind, err))
	}
}

func (t *tally) attempted() int {
	n := 0
	for _, k := range t.kinds {
		n += t.att[k]
	}
	return n
}

func (t *tally) failed() int {
	n := 0
	for _, k := range t.kinds {
		if k != kindChecks {
			n += t.fail[k]
		}
	}
	return n
}

func (t *tally) correct() bool { return t.fail[kindChecks] == 0 }

func (t *tally) print(w io.Writer) {
	for _, n := range t.notes {
		fmt.Fprintln(w, n)
	}
	for _, k := range t.kinds {
		fmt.Fprintf(w, "%-15s attempted %6d  failed %d\n", k, t.att[k], t.fail[k])
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the two middle values for even
// counts); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it — p = 100·(n−10)/n rounded down to a whole
// percent — with its value, by nearest rank. Samples of fewer than forty
// have no tail: it reports the median as p50.
func tailPercentile(xs []float64) (p int, v float64) {
	n := len(xs)
	if n < 40 {
		return 50, median(xs)
	}
	p = 100 * (n - 10) / n
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return p, s[rank-1]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the definition the bounds are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fileSize returns a file's length in bytes.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
