package main

import (
	"fmt"
	"time"

	"parms/internal/grid"
	"parms/internal/mpsim"
)

// exchangeStats describes one run of the recorded merge traffic over
// the message-passing substrate.
type exchangeStats struct {
	seconds  float64
	messages int64
	bytes    int64
	peak     int64
}

// exchangeTag keeps one round's messages from matching another's and
// two members of one group apart.
func exchangeTag(p payload) int { return p.Round*16 + p.Slot }

// exchange runs one Cluster.Run of procs ranks that only sends and
// receives the recorded merge payloads along the schedule, between the
// ranks owning the blocks, and returns its host time and traffic.
// Sends are eager, so every rank posts its sends before its receives.
func exchange(procs, nblocks int, payloads []payload) (exchangeStats, error) {
	c, err := mpsim.New(mpsim.Config{Procs: procs})
	if err != nil {
		return exchangeStats{}, err
	}
	owners := grid.NewOwnerTable(nblocks, procs)
	sent := make([]int64, procs)
	msgs := make([]int64, procs)
	t0 := time.Now()
	_, err = c.Run(func(r *mpsim.Rank) error {
		for _, p := range payloads {
			if owners.Owner(p.From) == r.ID() {
				r.Send(owners.Owner(p.To), exchangeTag(p), p.Frame)
			}
		}
		for _, p := range payloads {
			if owners.Owner(p.To) != r.ID() {
				continue
			}
			got, _ := r.Recv(owners.Owner(p.From), exchangeTag(p))
			if len(got) != len(p.Frame) {
				return fmt.Errorf("exchange: round %d block %d arrived with %d bytes, sent %d",
					p.Round, p.From, len(got), len(p.Frame))
			}
		}
		sent[r.ID()] = r.BytesSent()
		msgs[r.ID()] = r.MessagesSent()
		return nil
	})
	st := exchangeStats{seconds: time.Since(t0).Seconds()}
	if err != nil {
		return st, err
	}
	for i := range sent {
		st.bytes += sent[i]
		st.messages += msgs[i]
	}
	for _, p := range payloads {
		if n := int64(len(p.Frame)); n > st.peak {
			st.peak = n
		}
	}
	return st, nil
}
