package voxel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"obfuscade/internal/geom"
)

// The VOXL binary format: a small header followed by run-length-encoded
// material bytes. Printed-artifact grids are dominated by long runs of a
// single material, so RLE compresses them by two to three orders of
// magnitude — cheap enough to archive every inspected build alongside its
// CT report.

const voxlMagic = "VOXL1\n"

// Save serialises the grid to w.
func (g *Grid) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(voxlMagic); err != nil {
		return fmt.Errorf("voxel: save: %w", err)
	}
	head := []any{
		g.Origin.X, g.Origin.Y, g.Origin.Z,
		g.Cell, g.CellZ,
		int64(g.NX), int64(g.NY), int64(g.NZ),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("voxel: save header: %w", err)
		}
	}
	// RLE: (count uint32, material byte) pairs over the flat cell array.
	i := 0
	for i < len(g.cells) {
		m := g.cells[i]
		j := i
		for j < len(g.cells) && g.cells[j] == m && j-i < (1<<31) {
			j++
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(j-i)); err != nil {
			return fmt.Errorf("voxel: save run: %w", err)
		}
		if err := bw.WriteByte(byte(m)); err != nil {
			return fmt.Errorf("voxel: save run: %w", err)
		}
		i = j
	}
	return bw.Flush()
}

// Marshal serialises the grid to bytes.
func (g *Grid) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Load parses a grid saved by Save.
func Load(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(voxlMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("voxel: load magic: %w", err)
	}
	if string(magic) != voxlMagic {
		return nil, fmt.Errorf("voxel: bad magic %q", magic)
	}
	var ox, oy, oz, cell, cellZ float64
	var nx, ny, nz int64
	for _, v := range []any{&ox, &oy, &oz, &cell, &cellZ, &nx, &ny, &nz} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("voxel: load header: %w", err)
		}
	}
	if nx <= 0 || ny <= 0 || nz <= 0 || cell <= 0 || cellZ <= 0 {
		return nil, fmt.Errorf("voxel: invalid header dims %dx%dx%d", nx, ny, nz)
	}
	total := nx * ny * nz
	if total > 200_000_000 {
		return nil, fmt.Errorf("voxel: %d voxels exceed sanity limit", total)
	}
	g := &Grid{
		Origin: geom.V3(ox, oy, oz),
		Cell:   cell, CellZ: cellZ,
		NX: int(nx), NY: int(ny), NZ: int(nz),
		cells: make([]Material, total),
	}
	i := int64(0)
	for i < total {
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("voxel: load run: %w", err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("voxel: load run byte: %w", err)
		}
		if mb > byte(Support) {
			return nil, fmt.Errorf("voxel: invalid material %d", mb)
		}
		if int64(count) == 0 || i+int64(count) > total {
			return nil, fmt.Errorf("voxel: run overflows grid")
		}
		for k := int64(0); k < int64(count); k++ {
			g.cells[i+k] = Material(mb)
		}
		i += int64(count)
	}
	return g, nil
}

// Unmarshal parses grid bytes.
func Unmarshal(data []byte) (*Grid, error) {
	return Load(bytes.NewReader(data))
}

// Equal reports whether two grids have identical geometry and content.
func (g *Grid) Equal(o *Grid) bool {
	if o == nil || g.NX != o.NX || g.NY != o.NY || g.NZ != o.NZ ||
		g.Cell != o.Cell || g.CellZ != o.CellZ || !g.Origin.Eq(o.Origin, 0) {
		return false
	}
	return bytes.Equal(materialBytes(g.cells), materialBytes(o.cells))
}

func materialBytes(m []Material) []byte {
	out := make([]byte, len(m))
	for i, v := range m {
		out[i] = byte(v)
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := newTestGrid(t, 12, 9, 7)
	fillBox(g, [3]int{2, 2, 2}, [3]int{9, 7, 5}, Model)
	fillBox(g, [3]int{4, 4, 3}, [3]int{5, 5, 4}, Support)

	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Error("round trip changed grid content")
	}
	if back.Count(Support) != g.Count(Support) {
		t.Error("support count mismatch")
	}
}

func TestRLECompresses(t *testing.T) {
	g := newTestGrid(t, 50, 50, 20)
	fillBox(g, [3]int{5, 5, 5}, [3]int{44, 44, 14}, Model)
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw := g.NX * g.NY * g.NZ
	if len(data) > raw/5 {
		t.Errorf("RLE size %d, raw %d: expected >5x compression", len(data), raw)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a grid")); err == nil {
		t.Error("expected error for bad magic")
	}
	g := newTestGrid(t, 4, 4, 4)
	data, _ := g.Marshal()
	// Truncated.
	if _, err := Unmarshal(data[:len(data)-3]); err == nil {
		t.Error("expected error for truncated data")
	}
	// Corrupted run count overflowing the grid.
	bad := append([]byte{}, data...)
	bad[len(voxlMagic)+5*8+3*8] = 0xFF // bump the first run count high byte
	if _, err := Unmarshal(bad); err == nil {
		t.Error("expected error for overflowing run")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := newTestGrid(t, 4, 4, 4)
	b := newTestGrid(t, 4, 4, 4)
	if !a.Equal(b) {
		t.Error("identical grids should be equal")
	}
	b.Set(1, 1, 1, Model)
	if a.Equal(b) {
		t.Error("content difference not detected")
	}
	if a.Equal(nil) {
		t.Error("nil grid should not be equal")
	}
	c, _ := NewGrid(geom.AABB{Min: geom.V3(1, 0, 0), Max: geom.V3(4, 3, 3)}, 1, 1)
	if a.Equal(c) {
		t.Error("origin difference not detected")
	}
}

func TestSaveWriterError(t *testing.T) {
	g := newTestGrid(t, 4, 4, 4)
	w := &failingWriter{}
	if err := g.Save(w); err == nil {
		t.Error("expected write error to propagate")
	}
}

type failingWriter struct{}

func (f *failingWriter) Write(p []byte) (int, error) {
	return 0, bytes.ErrTooLarge
}
