package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// meter reads the process's resident set and the machine's CPU tick
// counters every few milliseconds in the background, so the timed loops make
// no system calls of their own for either.
type meter struct {
	mu      sync.Mutex
	samples []sample
	from    int // first sample of the current pass, for passRSS
	stop    chan struct{}
	done    chan struct{}
}

type sample struct {
	at    time.Time
	rssMB float64
	ticks cpuTicks
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *meter) sample() {
	s := sample{at: time.Now(), rssMB: residentMB(), ticks: readTicks()}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.mu.Unlock()
}

// residentMB reads the process's resident set from procfs; 0 where it is
// missing.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// passRSS returns the peak resident set in MB since the previous call,
// taken as the 95th percentile of the readings: the Go runtime returns freed
// memory to the system within seconds, so the resident set swings between
// GC cycles, and the highest readings depend on where one cycle happened to
// fall. In three serve runs the 99th percentile of a pass read 49.5-62.3 MB
// and the 95th 44.2-49.2 MB.
func (m *meter) passRSS() float64 {
	m.sample()
	m.mu.Lock()
	mb := make([]float64, 0, len(m.samples)-m.from)
	for _, s := range m.samples[m.from:] {
		mb = append(mb, s.rssMB)
	}
	m.from = len(m.samples)
	m.mu.Unlock()
	sort.Float64s(mb)
	return quantile(mb, 0.95)
}

// stolenBetween returns the stolen share of the CPU demand, and the demand
// in ticks, over the shortest sampled interval that covers [t0, t1].
func (m *meter) stolenBetween(t0, t1 time.Time) (share float64, demand int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.samples)
	if n == 0 {
		return 0, 0
	}
	i := sort.Search(n, func(k int) bool { return m.samples[k].at.After(t0) }) - 1
	j := sort.Search(n, func(k int) bool { return !m.samples[k].at.Before(t1) })
	a, b := m.samples[max(i, 0)].ticks, m.samples[min(j, n-1)].ticks
	return stolen(a, b), b.demand - a.demand
}

func (m *meter) close() {
	close(m.stop)
	<-m.done
}
