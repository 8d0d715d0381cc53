package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Parameters are serialized as float32, halving the on-disk footprint with
// no measurable accuracy impact for models this small; this is also the
// precision at which the paper accounts model memory ("we extract the
// weights", §8.2.2).

const paramsMagic = uint32(0x53455430) // "SET0"

// SaveParams writes params to w in a self-describing binary format.
func SaveParams(w io.Writer, params []*Param) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, paramsMagic); err != nil {
		return fmt.Errorf("nn: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return fmt.Errorf("nn: write count: %w", err)
	}
	for _, p := range params {
		name := []byte(p.Name)
		hdr := []uint32{uint32(len(name)), uint32(p.Value.Rows), uint32(p.Value.Cols)}
		if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
			return fmt.Errorf("nn: write header for %s: %w", p.Name, err)
		}
		if _, err := bw.Write(name); err != nil {
			return fmt.Errorf("nn: write name for %s: %w", p.Name, err)
		}
		buf := make([]byte, 4*len(p.Value.Data))
		for i, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("nn: write data for %s: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// RoundToFloat32 rounds every value of params to the float32 precision
// SaveParams keeps, so a model computes the same outputs before a save as
// after the load.
func RoundToFloat32(params []*Param) {
	for _, p := range params {
		for i, v := range p.Value.Data {
			p.Value.Data[i] = float64(float32(v))
		}
	}
}

// LoadParams reads values saved by SaveParams into params, which must have
// the same order, names, and shapes as at save time.
func LoadParams(r io.Reader, params []*Param) error {
	br := bufio.NewReader(r)
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: read magic: %w", err)
	}
	if magic != paramsMagic {
		return fmt.Errorf("nn: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: read count: %w", err)
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: file has %d params, model has %d", count, len(params))
	}
	for _, p := range params {
		var hdr [3]uint32
		if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
			return fmt.Errorf("nn: read header for %s: %w", p.Name, err)
		}
		if hdr[0] > 4096 {
			return fmt.Errorf("nn: corrupt name length %d for %s", hdr[0], p.Name)
		}
		name := make([]byte, hdr[0])
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("nn: read name for %s: %w", p.Name, err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: param order mismatch: file has %q, model expects %q", name, p.Name)
		}
		if int(hdr[1]) != p.Value.Rows || int(hdr[2]) != p.Value.Cols {
			return fmt.Errorf("nn: shape mismatch for %s: file %dx%d, model %dx%d",
				p.Name, hdr[1], hdr[2], p.Value.Rows, p.Value.Cols)
		}
		buf := make([]byte, 4*len(p.Value.Data))
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("nn: read data for %s: %w", p.Name, err)
		}
		for i := range p.Value.Data {
			p.Value.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return nil
}
