package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"govpic/internal/core"
	"govpic/internal/perf"
	psort "govpic/internal/sort"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
}

// tracer keeps spans and per-step counter deltas in memory until the
// run ends. A nil tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indexes of the spans not yet ended, innermost last
	steps []stepDelta
	prev  counters
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under the innermost open span and returns a handle
// for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(), Run: t.run,
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// counters is a between-steps reading of what the program exports:
// each rank's section breakdown and the global kernel, sort and comm
// counters.
type counters struct {
	ranks                        []perf.Breakdown
	pushed, runs, moved, traffic int64
	flops                        int64
	sort                         psort.Passes
	commBytes, commMsgs          int64
}

func readCounters(s *core.Simulation) counters {
	c := counters{ranks: make([]perf.Breakdown, len(s.Ranks))}
	for i, rk := range s.Ranks {
		c.ranks[i] = rk.Perf
		for _, k := range rk.Kernels {
			c.pushed += k.NPushed
			c.runs += k.NRuns
			c.moved += k.NMoved
			c.traffic += k.TrafficBytes()
		}
	}
	c.flops = s.Flops()
	c.sort = s.SortPasses()
	for _, cs := range s.CommTraffic() {
		c.commBytes += cs.Bytes
		c.commMsgs += cs.Msgs
	}
	return c
}

// rankDelta is one rank's share of one step.
type rankDelta struct {
	Sections    [perf.NumSections]float64 `json:"sections_s"` // push, sort, field, comm, diag
	PushBusy    float64                   `json:"push_busy_s"`
	PushWall    float64                   `json:"push_parallel_s"`
	CommWait    float64                   `json:"comm_wait_s"`
	CommOverlap float64                   `json:"comm_overlap_s"`
}

// stepDelta is one traced step: its wall time and every counter's
// change across it.
type stepDelta struct {
	Step      int          `json:"step"`
	Wall      float64      `json:"wall_s"`
	Ranks     []rankDelta  `json:"ranks"`
	Pushed    int64        `json:"pushed"`
	Runs      int64        `json:"runs"`
	Moved     int64        `json:"moved"`
	Traffic   int64        `json:"traffic_bytes"`
	Flops     int64        `json:"flops"`
	Sort      psort.Passes `json:"sort"`
	CommBytes int64        `json:"comm_bytes"`
	CommMsgs  int64        `json:"comm_msgs"`
}

// pushParallel recovers the push section's cumulative worker-busy and
// parallel-region wall seconds from the breakdown's exported ratios.
func pushParallel(b *perf.Breakdown) (busy, wall float64) {
	wall = b.ParallelShare(perf.Push) * b.Elapsed(perf.Push).Seconds()
	return b.Concurrency(perf.Push) * wall, wall
}

// mark takes the reading that the next step's delta starts from.
func (t *tracer) mark(s *core.Simulation) {
	if t != nil {
		t.prev = readCounters(s)
	}
}

// step records the counter deltas of the step that just ended. Ranks
// are quiescent between steps, so the reads race with nothing.
func (t *tracer) step(s *core.Simulation, wall time.Duration) {
	if t == nil {
		return
	}
	cur := readCounters(s)
	p := t.prev
	d := stepDelta{
		Step: s.StepCount(), Wall: wall.Seconds(),
		Ranks:  make([]rankDelta, len(cur.ranks)),
		Pushed: cur.pushed - p.pushed, Runs: cur.runs - p.runs, Moved: cur.moved - p.moved,
		Traffic: cur.traffic - p.traffic, Flops: cur.flops - p.flops,
		Sort: psort.Passes{
			CountSeconds:   cur.sort.CountSeconds - p.sort.CountSeconds,
			MergeSeconds:   cur.sort.MergeSeconds - p.sort.MergeSeconds,
			ScatterSeconds: cur.sort.ScatterSeconds - p.sort.ScatterSeconds,
			Sorts:          cur.sort.Sorts - p.sort.Sorts,
		},
		CommBytes: cur.commBytes - p.commBytes, CommMsgs: cur.commMsgs - p.commMsgs,
	}
	for r := range cur.ranks {
		b0, b1 := &p.ranks[r], &cur.ranks[r]
		rd := &d.Ranks[r]
		for sec := perf.Section(0); sec < perf.NumSections; sec++ {
			rd.Sections[sec] = (b1.Elapsed(sec) - b0.Elapsed(sec)).Seconds()
		}
		busy0, wall0 := pushParallel(b0)
		busy1, wall1 := pushParallel(b1)
		rd.PushBusy, rd.PushWall = busy1-busy0, wall1-wall0
		rd.CommWait = (b1.CommWait() - b0.CommWait()).Seconds()
		rd.CommOverlap = (b1.CommOverlap() - b0.CommOverlap()).Seconds()
	}
	t.steps = append(t.steps, d)
	t.prev = cur
}

// stepLayers turns the traced steps into the per-layer metrics that
// come from the program's own counters.
func (t *tracer) stepLayers(out map[string]float64) {
	nr := len(t.steps[0].Ranks)
	var wall, pushBusy, pushWall, commWait, commOverlap float64
	var pushed, runs, moved, traffic, flops, commBytes, commMsgs int64
	var sort psort.Passes
	secs := make([][perf.NumSections]float64, nr)
	for _, d := range t.steps {
		wall += d.Wall
		pushed += d.Pushed
		runs += d.Runs
		moved += d.Moved
		traffic += d.Traffic
		flops += d.Flops
		commBytes += d.CommBytes
		commMsgs += d.CommMsgs
		sort.Merge(d.Sort)
		for r, rd := range d.Ranks {
			for sec, v := range rd.Sections {
				secs[r][sec] += v
			}
			pushBusy += rd.PushBusy
			pushWall += rd.PushWall
			commWait += rd.CommWait
			commOverlap += rd.CommOverlap
		}
	}
	steps := float64(len(t.steps))
	perRankStep := func(sec perf.Section) float64 {
		var sum float64
		for r := range secs {
			sum += secs[r][sec]
		}
		return sum / float64(nr) / steps
	}
	var sortSec float64
	unattributed := math.Inf(-1)
	for r := range secs {
		sortSec += secs[r][perf.Sort]
		var tot float64
		for _, v := range secs[r] {
			tot += v
		}
		unattributed = max(unattributed, 1-tot/wall)
	}
	sorts := float64(sort.Sorts)

	out["push.s_per_step"] = perRankStep(perf.Push)
	out["push.workers_busy"] = pushBusy / pushWall
	out["push.run_len"] = float64(pushed) / float64(runs)
	out["push.mover_frac"] = float64(moved) / float64(pushed)
	out["push.bytes_per_particle"] = float64(traffic) / float64(pushed)
	out["push.flops_per_particle"] = float64(flops) / float64(pushed)
	out["sort.s_per_sort"] = sortSec / sorts
	out["sort.count_s"] = sort.CountSeconds / sorts
	out["sort.merge_s"] = sort.MergeSeconds / sorts
	out["sort.scatter_s"] = sort.ScatterSeconds / sorts
	out["field.s_per_step"] = perRankStep(perf.Field)
	out["domain.s_per_step"] = perRankStep(perf.Comm)
	out["domain.wait_s_per_step"] = commWait / float64(nr) / steps
	out["domain.overlap_s_per_step"] = commOverlap / float64(nr) / steps
	out["domain.bytes_per_step"] = float64(commBytes) / steps
	out["domain.msgs_per_step"] = float64(commMsgs) / steps
	out["core.unattributed_frac"] = unattributed
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Run    string             `json:"run"`
	Host   fingerprint        `json:"host"`
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans"`
	Steps  []stepDelta        `json:"steps"`
}

// write stores the trace under dir as <run>.json.
func (t *tracer) write(dir string, host fingerprint, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{Run: t.run, Host: host, Layers: layers, Spans: t.spans, Steps: t.steps})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, t.run+".json")
	return path, os.WriteFile(path, data, 0o644)
}
