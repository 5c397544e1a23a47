package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  string `json:"query,omitempty"`
}

// tracer keeps every span of a traced run in memory; writeFile dumps them at
// exit. A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary and never reach the wrappers at all.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// noSpan is the parent of root spans and the id returned by a nil tracer.
const noSpan int32 = -1

func (t *tracer) begin(name string, parent int32, query string) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Query: query})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// writeFile writes the spans as NDJSON, one span per line, in start order.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name ("dataflow.forward") to its layer ("dataflow").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children of a batch solve run
// concurrently, so the covered part is the union of their intervals, not
// their sum.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals clipped to
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curA, curB, started = v[0], v[1], true
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// profile summarizes a traced run: per span name its call count, total
// duration and total self time; per layer its self time.
type profile struct {
	calls     map[string]int
	totalNS   map[string]int64
	selfNS    map[string]int64
	layerSelf map[string]int64
}

// under marks the spans that descend from a root span of the given name.
func under(spans []span, root string) []bool {
	in := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent == noSpan {
			in[i] = s.Name == root
		} else {
			in[i] = in[s.Parent]
		}
	}
	return in
}

// summarize profiles the spans that keep marks.
func summarize(spans []span, keep []bool) profile {
	p := profile{
		calls:     map[string]int{},
		totalNS:   map[string]int64{},
		selfNS:    map[string]int64{},
		layerSelf: map[string]int64{},
	}
	for i, s := range selfTimes(spans) {
		if !keep[i] {
			continue
		}
		n := spans[i].Name
		p.calls[n]++
		p.totalNS[n] += spans[i].End - spans[i].Start
		p.selfNS[n] += s
		p.layerSelf[layerOf(n)] += s
	}
	return p
}

// render prints the self-time tables of a traced run, per span name and per
// layer, largest first. The bench layer's self time is the unattributed
// remainder.
func (p profile) render(passes int) string {
	names := make([]string, 0, len(p.calls))
	for n := range p.calls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return p.selfNS[names[i]] > p.selfNS[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %12s %12s   (per pass)\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(&b, "%-22s %10.1f %12.3f %12.3f\n", n,
			float64(p.calls[n])/float64(passes),
			nsToMS(p.totalNS[n])/float64(passes), nsToMS(p.selfNS[n])/float64(passes))
	}
	layers := make([]string, 0, len(p.layerSelf))
	for l := range p.layerSelf {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return p.layerSelf[layers[i]] > p.layerSelf[layers[j]] })
	fmt.Fprintf(&b, "%-22s %12s   (per pass)\n", "layer", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-22s %12.3f\n", l, nsToMS(p.layerSelf[l])/float64(passes))
	}
	return b.String()
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
