package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer, kept in memory until the
// benchmark ends. Block and Round are -1 where they do not apply;
// Parent is the index of the enclosing span, -1 for the root.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Block      int
	Round      int
}

// recorder collects properly nested spans from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string, block, round int) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Start: time.Since(r.epoch), Parent: parent, Block: block, Round: round,
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if n := len(r.open); n == 0 || r.open[n-1] != i {
		panic("hostbench: spans closed out of order")
	}
	r.spans[i].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// selfSeconds returns each span's duration minus the time its child
// spans cover. Children of one parent never overlap, so their sum is
// the covered part.
func (r *recorder) selfSeconds() []float64 {
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		self[i] += (s.End - s.Start).Seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= (s.End - s.Start).Seconds()
		}
	}
	return self
}

// selfByName sums self time per span name.
func (r *recorder) selfByName() map[string]float64 {
	out := map[string]float64{}
	for i, s := range r.selfSeconds() {
		out[r.spans[i].Name] += s
	}
	return out
}

// selfByBlock returns the self time of every span with the given name,
// indexed by block id (blocks 0..n-1).
func (r *recorder) selfByBlock(name string, n int) []float64 {
	out := make([]float64, n)
	self := r.selfSeconds()
	for i, s := range r.spans {
		if s.Name == name && s.Block >= 0 && s.Block < n {
			out[s.Block] += self[i]
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON: one
// complete ("X") event per span on a single track, in start order, with
// microsecond timestamps. args carry the block, the round and the parent
// span's event index (-1 for the root).
func (r *recorder) writeChromeTrace(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Cat: "hostbench", Ph: "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"block": s.Block, "round": s.Round, "parent": s.Parent},
		}
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	}); err != nil {
		return err
	}
	return bw.Flush()
}
