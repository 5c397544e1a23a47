package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor may withhold CPU time from
// runnable work: the guest accounts it as steal. On a 2-vCPU VM, steal went
// from under 1% to half of the CPU time the benchmark asked for within
// minutes, and a pass's wall grew with it, so raw walls measure the host as
// much as the program. Every reported time therefore removes the stolen
// share from the part of the time that was spent computing; time spent
// waiting on a timer (the server's coalescing window) is kept as measured.

// cpuTicks is the machine's aggregate CPU demand (busy plus stolen ticks)
// and the stolen part of it, from the first line of /proc/stat.
type cpuTicks struct{ demand, steal int64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuTicks{demand: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stolen is the share of the CPU demand between two readings that the
// hypervisor did not grant; 0 where procfs gives no figures.
func stolen(a, b cpuTicks) float64 {
	if d := b.demand - a.demand; d > 0 {
		return float64(b.steal-a.steal) / float64(d)
	}
	return 0
}

// minTicks is the CPU demand, in clock ticks, below which a unit's own
// steal share is too coarse to use and its pass's share stands in.
const minTicks = 20

// minAdjustMS is the computing time below which a unit keeps its raw time.
// The hypervisor steals in slices of about a millisecond, so a shorter unit
// is hit whole or not at all and its median is not inflated in proportion
// to the steal share: under 35% steal, edit-warm's median query read 0.72 ms
// raw and 0.46 ms adjusted, against about 0.6 ms with no steal.
const minAdjustMS = 1.0

// passRec is one measured pass.
type passRec struct {
	outs  []outcome
	start time.Time
	ms    float64 // wall
	steal float64 // stolen share of CPU demand during the pass
	rssMB float64 // peak resident set during the pass
}

func (p *passRec) wallMS() float64     { return p.ms }
func (p *passRec) stealShare() float64 { return p.steal }

// adjMS is the pass wall with the stolen share of its computing part taken
// out. The computing part is the share of the outcomes' time not spent
// waiting on a timer.
func (p *passRec) adjMS() float64 {
	var total, wait float64
	for _, o := range p.outs {
		total += o.ms
		wait += o.waitMS
	}
	computing := 1.0
	if total > 0 {
		computing = (total - wait) / total
	}
	return p.ms * (1 - p.steal*computing)
}

// adjMS is the outcome's time with the stolen share taken out of its
// computing part: its own share when it spanned enough ticks to measure one,
// else its pass's.
func (o outcome) adjMS(m *meter, passSteal float64) float64 {
	if o.ms-o.waitMS < minAdjustMS {
		return o.ms
	}
	s, demand := m.stolenBetween(o.start, o.start.Add(time.Duration(o.ms*1e6)))
	if demand < minTicks {
		s = passSteal
	}
	return o.waitMS + (o.ms-o.waitMS)*(1-s)
}
