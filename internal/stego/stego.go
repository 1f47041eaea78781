// Package stego implements the covert-channel threat model of "Stop
// Stealing My Data: Sanitizing Stego Channels in 3D Printing Design
// Files" (arXiv 2404.05106) over the repository's STL representation.
//
// An STL file carries more entropy than the geometry it describes: the
// *order* of its facets and the low bits of its coordinates are both
// free variables a tool in the design chain can set without changing
// the printed part. That makes every exported design file a covert
// exfiltration surface. This package provides all three roles:
//
//   - Embed hides a payload in one (or both) of two channels: a
//     facet-permutation channel (the payload selects the ordering of
//     the canonically-sorted facet list, ~log2(n!) bits) and a
//     coordinate-LSB channel (each payload bit nudges one coordinate by
//     a quarter of the sanitizer's quantum, 9 bits per facet).
//   - Detect scores a mesh per channel with order statistics
//     (normalized inversion count against the canonical facet order)
//     and LSB entropy (Shannon entropy of the sub-quantum coordinate
//     residues), without needing the original file.
//   - Sanitize destroys both channels: facets are re-ordered by a
//     deterministic spatial sort and every coordinate is re-quantized
//     to the grid, so the output depends only on the geometry — two
//     files describing the same part sanitize to identical bytes, and
//     no residual ordering or sub-quantum freedom remains to carry
//     data. Property tests prove sanitized meshes slice byte-identically
//     (against the retained naive slicer kernels) and that embedded
//     payloads are unrecoverable afterwards.
//
// The defense is the pair (attack, sanitizer) registered in
// internal/supplychain and exposed by the service as POST /sanitize.
package stego

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"obfuscade/internal/parallel"
)

// Version tags the sanitizer's behaviour. It is hashed into the
// service's content addresses so a change to the canonical order, the
// quantum default, or the frame format invalidates cached results.
const Version = "obfuscade-stego/2"

// sanitizedHeader is the binary STL header of every sanitized file. The
// input's header or solid name is free text an attacker controls, so it
// never reaches the output.
const sanitizedHeader = "sanitized by " + Version

// DefaultQuantum is the coordinate grid the sanitizer snaps to: 2^-10
// model units (sub-micron at mm scale), far below any printer's
// resolution but coarse enough that quantization is exact in both
// float32 (the STL wire format) and float64 for any sane part size.
const DefaultQuantum = 1.0 / 1024

// permWindow bounds the facet-permutation channel to the first w
// canonically-sorted facets. log2(4096!) ≈ 43k bits (~5.3 KB) of
// capacity while keeping the factoradic arithmetic far from the
// quadratic blow-up a million-facet mesh would cause.
const permWindow = 4096

// Channel selects which stego channel(s) an Embed call uses.
type Channel int

const (
	// ChannelFacetOrder hides the payload in the permutation of the
	// facet list relative to the canonical spatial sort.
	ChannelFacetOrder Channel = 1 << iota
	// ChannelCoordLSB hides the payload in sub-quantum coordinate
	// offsets: bit 1 shifts a coordinate by quantum/4, bit 0 leaves it
	// on the grid.
	ChannelCoordLSB
)

func (c Channel) String() string {
	switch c {
	case ChannelFacetOrder:
		return "facet-order"
	case ChannelCoordLSB:
		return "coord-lsb"
	case ChannelFacetOrder | ChannelCoordLSB:
		return "facet-order+coord-lsb"
	default:
		return fmt.Sprintf("channel(%d)", int(c))
	}
}

// Options parameterize every operation in the package. The zero value
// is usable: withDefaults fills in the quantum and detection
// thresholds.
type Options struct {
	// Quantum is the coordinate grid pitch. Powers of two divide
	// floating-point values exactly; anything else works but loses the
	// bit-exactness guarantees. Defaults to DefaultQuantum.
	Quantum float64
	// Channels selects the embedding channel(s). Defaults to both.
	Channels Channel
	// OrderThreshold is the facet-order suspicion score above which
	// Detect flags the channel. Defaults to 0.05 (canonical files score
	// exactly 0; a random permutation scores ~1).
	OrderThreshold float64
	// LSBThreshold is the coordinate-LSB suspicion score above which
	// Detect flags the channel. Defaults to 0.05 (on-grid files score
	// exactly 0; an embedded payload scores ~0.3, arbitrary coordinates
	// ~1).
	LSBThreshold float64
}

func (o Options) withDefaults() Options {
	if o.Quantum <= 0 || math.IsNaN(o.Quantum) || math.IsInf(o.Quantum, 0) {
		o.Quantum = DefaultQuantum
	}
	if o.Channels == 0 {
		o.Channels = ChannelFacetOrder | ChannelCoordLSB
	}
	if o.OrderThreshold <= 0 {
		o.OrderThreshold = 0.05
	}
	if o.LSBThreshold <= 0 {
		o.LSBThreshold = 0.05
	}
	return o
}

// Payload framing: both channels carry the same self-describing frame
// so extraction needs no out-of-band length, and sanitization is
// *provably* destructive — after re-canonicalization the extracted bits
// fail the magic/CRC check rather than decoding to garbage that might
// be mistaken for data.
const (
	frameMagic0 = 0x53 // 'S'
	frameMagic1 = 0x74 // 't'
	frameOver   = 2 + 2 + 4
	// maxPayload bounds a single frame: a uint16 length plus overhead.
	maxPayload = 1<<16 - 1
)

func buildFrame(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("stego: empty payload")
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("stego: payload %d bytes exceeds frame limit %d", len(payload), maxPayload)
	}
	frame := make([]byte, 0, frameOver+len(payload))
	frame = append(frame, frameMagic0, frameMagic1)
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(payload)))
	frame = append(frame, payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return frame, nil
}

// padFrame extends a frame to total bytes with deterministic filler
// (SplitMix over the frame's checksum). Both channels embed at full
// capacity: a short payload rattling around a large channel would leave
// most of the order/LSB freedom canonical and hide from the detector's
// own statistics, so the embedder — like any competent exfiltrator —
// fills the channel. parseFrame ignores the padding on extraction.
func padFrame(frame []byte, total int) []byte {
	if total <= len(frame) {
		return frame
	}
	out := make([]byte, len(frame), total)
	copy(out, frame)
	seed := int64(crc32.ChecksumIEEE(frame)) + int64(len(frame))<<32
	for i := 0; len(out) < total; i++ {
		out = binary.BigEndian.AppendUint64(out, uint64(parallel.SplitMix(seed, i)))
	}
	return out[:total]
}

func parseFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameOver {
		return nil, fmt.Errorf("stego: no frame present")
	}
	if frame[0] != frameMagic0 || frame[1] != frameMagic1 {
		return nil, fmt.Errorf("stego: frame magic mismatch")
	}
	n := int(binary.BigEndian.Uint16(frame[2:]))
	if len(frame) < 4+n+4 {
		return nil, fmt.Errorf("stego: truncated frame: %d payload bytes promised, %d available", n, len(frame)-frameOver)
	}
	payload := frame[4 : 4+n]
	want := binary.BigEndian.Uint32(frame[4+n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("stego: frame checksum mismatch")
	}
	out := make([]byte, n)
	copy(out, payload)
	return out, nil
}
