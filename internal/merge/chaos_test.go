package merge

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"parms/internal/cube"
	"parms/internal/fault"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// blockComplex computes the complex of a real one-block volume.
func blockComplex() *mscomplex.Complex {
	vol := synth.Sinusoid(13, 2)
	block := grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{12, 12, 12}}
	f := gradient.Compute(cube.New(vol.Dims, block, vol), nil)
	return mscomplex.FromField(f, nil, mscomplex.TraceOptions{}).Complex
}

// framedPayload builds the framed wire form of a real block complex,
// exactly what Execute's phase 1 puts on the network.
func framedPayload(tb testing.TB) []byte {
	tb.Helper()
	return mpsim.Frame(blockComplex().Serialize())
}

// TestChaosSpeculativeCorruptPayloadLogged: a member payload that is
// both late and corrupt wins the speculation race on arrival time but
// fails its checksum, so the speculative recompute is adopted. The
// rejection must be counted, traced and logged exactly as an on-time
// corrupt payload is.
func TestChaosSpeculativeCorruptPayloadLogged(t *testing.T) {
	var buf bytes.Buffer
	ob := obs.New(2)
	ob.Log = obs.NewJSONLogger(&buf)
	c, err := mpsim.New(mpsim.Config{Procs: 2, Obs: ob, RecvGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	bad := framedPayload(t)
	bad[len(bad)/2] ^= 0x20
	rep := &fault.Report{}
	opts := Options{
		Timeout: 1e-9,
		Report:  rep,
		// A recompute far slower than the payload's transfer, so the
		// payload is taken first.
		Recompute: func(rk *mpsim.Rank, _ *fault.Report, _ int) (*mscomplex.Complex, error) {
			rk.Compute(vtime.Work{CellsVisited: 1e7})
			return blockComplex(), nil
		},
	}
	sched := Schedule{Radices: []int{2}}
	tag := tagMergeBase + 1
	var got *mscomplex.Complex
	_, err = c.Run(func(r *mpsim.Rank) error {
		if r.ID() == 1 {
			r.Send(0, tag, bad)
			return nil
		}
		if _, _, ok := r.RecvTimeout(1, tag, opts.Timeout); ok {
			return fmt.Errorf("payload arrived within %v s", opts.Timeout)
		}
		got, _ = speculate(r, sched, 2, 1, 1, tag, 0, opts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || rep.Corruptions != 1 || rep.SpeculationRecomputeWins != 1 {
		t.Fatalf("recovered %v, report %v; want the recompute adopted after 1 corruption", got != nil, rep)
	}
	if n := strings.Count(buf.String(), `"msg":"fault.corrupt"`); n != 1 {
		t.Errorf("log has %d fault.corrupt lines, want 1:\n%s", n, buf.String())
	}
	var traced bool
	for _, in := range ob.Trace.Instants(0) {
		traced = traced || in.Name == "fault:corrupt"
	}
	if !traced {
		t.Error("no fault:corrupt instant on the root's track")
	}
}

// TestChaosFramedPayloadCorruptionRejected flips every single byte of a
// framed merge payload and tries a spread of truncations: the decoder
// must reject 100% of them — a corrupted complex must never be glued.
func TestChaosFramedPayloadCorruptionRejected(t *testing.T) {
	frame := framedPayload(t)
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x20
		if _, err := decodeMember(bad); err == nil {
			t.Fatalf("byte flip at offset %d of %d accepted", i, len(frame))
		}
	}
	for n := 0; n < len(frame); n += 11 {
		if _, err := decodeMember(frame[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(frame))
		}
	}
	for _, pad := range []int{1, 8, 4096} {
		padded := append(append([]byte(nil), frame...), make([]byte, pad)...)
		if _, err := decodeMember(padded); err == nil {
			t.Fatalf("frame padded by %d bytes accepted", pad)
		}
	}
	if _, err := decodeMember(frame); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
}

// FuzzChaosUnframe: for any input that unframes successfully, any
// single-byte flip of it must be rejected (CRC-32C detects all
// single-byte errors; the length field detects resizes).
func FuzzChaosUnframe(f *testing.F) {
	frame := framedPayload(f)
	f.Add(frame, 0, byte(0x01))
	f.Add(frame, 4, byte(0x80))
	f.Add(frame, len(frame)-1, byte(0xff))
	f.Add(mpsim.Frame(nil), 0, byte(0x10))
	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		orig, err := mpsim.Unframe(data)
		if err != nil {
			return // not a valid frame to begin with
		}
		if len(data) == 0 || mask == 0 {
			return
		}
		idx := int(uint(pos) % uint(len(data)))
		mutated := append([]byte(nil), data...)
		mutated[idx] ^= mask
		back, err := mpsim.Unframe(mutated)
		if err == nil && !bytes.Equal(mutated, data) {
			t.Fatalf("corrupted frame accepted (flip at %d, mask %#x, payload equal: %v)",
				idx, mask, bytes.Equal(back, orig))
		}
	})
}
