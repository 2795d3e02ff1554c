// Package grid provides the structured-grid data model of the pipeline:
// scalar volumes sampled at vertices of a regular 3D grid, the bisection
// domain decomposition with a shared vertex layer between neighboring
// blocks, and global addressing of cells in the refined (gradient) grid.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// DType identifies the on-disk sample type of a volume. The paper's
// implementation supports unsigned byte, single- and double-precision
// floating point.
type DType int

const (
	// U8 is one unsigned byte per sample.
	U8 DType = iota
	// F32 is a little-endian float32 per sample.
	F32
	// F64 is a little-endian float64 per sample.
	F64
)

// Size returns the number of bytes per sample.
func (d DType) Size() int {
	switch d {
	case U8:
		return 1
	case F64:
		return 8
	default:
		return 4
	}
}

func (d DType) String() string {
	switch d {
	case U8:
		return "u8"
	case F64:
		return "f64"
	default:
		return "f32"
	}
}

// ParseDType converts a string ("u8", "f32", "f64") to a DType.
func ParseDType(s string) (DType, error) {
	switch s {
	case "u8", "uint8", "byte":
		return U8, nil
	case "f32", "float32", "float":
		return F32, nil
	case "f64", "float64", "double":
		return F64, nil
	}
	return F32, fmt.Errorf("grid: unknown dtype %q", s)
}

// Dims is the vertex extent of a grid in x, y, z.
type Dims [3]int

// Verts returns the total number of vertices.
func (d Dims) Verts() int64 { return int64(d[0]) * int64(d[1]) * int64(d[2]) }

// Refined returns the extent of the refined (cell complex) grid, which
// has one slot per cell of the cubical complex: 2n-1 per dimension.
func (d Dims) Refined() Dims { return Dims{2*d[0] - 1, 2*d[1] - 1, 2*d[2] - 1} }

func (d Dims) String() string { return fmt.Sprintf("%d×%d×%d", d[0], d[1], d[2]) }

// Volume is a scalar field sampled at the vertices of a structured grid,
// held as float32 regardless of on-disk type (the paper's byte and
// double data are converted on read; see DESIGN.md).
type Volume struct {
	Dims  Dims
	DType DType
	Data  []float32
}

// NewVolume allocates a zero-filled volume.
func NewVolume(dims Dims) *Volume {
	return &Volume{Dims: dims, DType: F32, Data: make([]float32, dims.Verts())}
}

// VertIndex returns the linear index of vertex (x, y, z).
func (v *Volume) VertIndex(x, y, z int) int64 {
	return int64(x) + int64(y)*int64(v.Dims[0]) + int64(z)*int64(v.Dims[0])*int64(v.Dims[1])
}

// At returns the sample at vertex (x, y, z).
func (v *Volume) At(x, y, z int) float32 { return v.Data[v.VertIndex(x, y, z)] }

// Set stores a sample at vertex (x, y, z).
func (v *Volume) Set(x, y, z int, f float32) { v.Data[v.VertIndex(x, y, z)] = f }

// Range returns the minimum and maximum finite sample values, or (0, 0)
// when there are none. ±Inf and NaN samples are skipped: the range
// scales the relative persistence threshold, and one infinite sample
// would make that threshold infinite and simplify everything away.
func (v *Volume) Range() (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for _, f := range v.Data {
		if math.IsInf(float64(f), 0) || f != f {
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// ErrNaN reports a NaN sample. The gradient stage orders vertices by
// value and NaN has no place in that order, so every pipeline entry
// rejects a volume holding one before any rank starts. Errors returned
// for it wrap ErrNaN; test with errors.Is.
var ErrNaN = errors.New("grid: NaN sample")

// CheckNaN returns an error wrapping ErrNaN that names the first NaN
// sample of the volume, or nil when there is none.
func (v *Volume) CheckNaN() error {
	for i, f := range v.Data {
		if math.IsNaN(float64(f)) {
			x := i % v.Dims[0]
			y := i / v.Dims[0] % v.Dims[1]
			z := i / (v.Dims[0] * v.Dims[1])
			return fmt.Errorf("%w at vertex (%d,%d,%d)", ErrNaN, x, y, z)
		}
	}
	return nil
}

// Bytes serializes the volume samples in x-fastest order using the
// volume's DType, the raw format the parallel reader consumes.
func (v *Volume) Bytes() []byte {
	out := make([]byte, int64(v.DType.Size())*v.Dims.Verts())
	for i, f := range v.Data {
		putSample(out, i, v.DType, f)
	}
	return out
}

// SubVolume extracts the closed vertex box [lo, hi] as a standalone
// volume (the per-block data with its shared layer included).
func (v *Volume) SubVolume(lo, hi [3]int) *Volume {
	bd := Dims{hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1}
	out := NewVolume(bd)
	for z := 0; z < bd[2]; z++ {
		for y := 0; y < bd[1]; y++ {
			src := v.VertIndex(lo[0], lo[1]+y, lo[2]+z)
			dst := out.VertIndex(0, y, z)
			copy(out.Data[dst:dst+int64(bd[0])], v.Data[src:src+int64(bd[0])])
		}
	}
	return out
}

// DecodeSamples converts raw little-endian samples of the given dtype to
// float32 values.
func DecodeSamples(raw []byte, dt DType) ([]float32, error) {
	sz := dt.Size()
	if len(raw)%sz != 0 {
		return nil, fmt.Errorf("grid: raw length %d not a multiple of sample size %d", len(raw), sz)
	}
	n := len(raw) / sz
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		out[i] = getSample(raw, i, dt)
	}
	return out, nil
}

func putSample(buf []byte, i int, dt DType, f float32) {
	switch dt {
	case U8:
		buf[i] = uint8(f)
	case F64:
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(float64(f)))
	default:
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
}

func getSample(buf []byte, i int, dt DType) float32 {
	switch dt {
	case U8:
		return float32(buf[i])
	case F64:
		return float32(math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
	default:
		return math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
}
