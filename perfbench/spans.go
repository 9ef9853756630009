package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Calls made once per answer or per share
// are not recorded one by one: they are summed into one span per
// (epoch, worker, layer) whose Start/End envelope the first call's start
// and the last call's end, whose Busy is the summed call time, and whose
// Count is the number of work units (answers, shares, records, windows)
// the calls handled. For a single call Busy == End − Start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Epoch  int64  `json:"epoch"`  // -1 outside the epoch loop
	Worker int    `json:"worker"` // -1 for spans of the coordinating goroutine
	Count  int64  `json:"count"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
	Alloc  int64  `json:"alloc_bytes"` // heap bytes allocated, phase spans only
}

func (s span) wall() int64 { return s.End - s.Start }

// tracer keeps every span in memory; dump writes them once at the end.
// Only the coordinating goroutine appends: workers fill their own acc
// values and the coordinator folds them in after the workers finish.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a coordinator span and returns its index.
func (t *tracer) open(name string, parent int, epoch int64) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Epoch: epoch, Worker: -1})
	return len(t.spans) - 1
}

// close ends a coordinator span, charging it count units of work.
func (t *tracer) close(i int, count int64) {
	s := &t.spans[i]
	s.End = t.now()
	s.Busy = s.End - s.Start
	s.Count = count
	s.Calls = 1
}

// acc sums the calls one worker makes into one layer during one epoch.
type acc struct {
	start, end int64
	busy       int64
	count      int64
	calls      int64
}

// add records one call [from, to) that handled n units.
func (a *acc) add(from, to, n int64) {
	if a.calls == 0 || from < a.start {
		a.start = from
	}
	if to > a.end {
		a.end = to
	}
	a.busy += to - from
	a.count += n
	a.calls++
}

// fold appends a worker's summed span under parent and returns its
// index (-1 when the worker made no calls).
func (t *tracer) fold(name string, parent int, epoch int64, worker int, a *acc) int {
	if a.calls == 0 {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: a.start, End: a.end, Parent: parent,
		Epoch: epoch, Worker: worker, Count: a.count, Calls: a.calls, Busy: a.busy})
	return len(t.spans) - 1
}

// covered returns how much of [lo, hi) the union of the intervals
// covers. Intervals from parallel workers overlap; each instant counts
// once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// selfTimes returns, per span index, the span's wall time minus the
// part of it its direct children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.wall() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	wall, busy, count, calls, alloc, self int64
	spans                                 int
}

// totals sums the spans of each name, leaving out epochs before
// minEpoch (spans outside the epoch loop always count).
func (t *tracer) totals(minEpoch int64) map[string]*layerTotal {
	self := selfTimes(t.spans)
	out := make(map[string]*layerTotal)
	for i, s := range t.spans {
		if s.Epoch >= 0 && s.Epoch < minEpoch {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.wall += s.wall()
		lt.busy += s.Busy
		lt.count += s.Count
		lt.calls += s.Calls
		lt.alloc += s.Alloc
		lt.self += self[i]
		lt.spans++
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
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
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
