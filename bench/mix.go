package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sync"

	"obfuscade/internal/serve"
	"obfuscade/internal/stego"
)

// The request mixes. Every generator draws from a math/rand/v2 PCG seeded by
// the run's -seed, so the same seed gives the same requests. The servers only
// ever see the generated requests.

var (
	partNames = []string{"bar", "bar-sphere", "double-bar", "prism"}
	resNames  = []string{"coarse", "fine", "custom"}
	orients   = []string{"x-y", "x-z"}
	// sphereParts carry the embedded-sphere feature, so restore_sphere
	// changes what they print.
	sphereParts = map[string]bool{"bar-sphere": true, "prism": true}
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// interleave returns a cycle that holds kind i exactly weights[i] times,
// ordered by smooth weighted round-robin, so every prefix of the cycle holds
// each kind in its share to within about one item. A run covers part of a
// cycle; with independent draws, which costly kinds a short run happened to
// get would move its throughput more than the code under test does.
func interleave(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	cur := make([]int, len(weights))
	out := make([]int, 0, total)
	for len(out) < total {
		best := 0
		for i, w := range weights {
			cur[i] += w
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, best)
	}
	return out
}

// cycle walks an interleaved cycle from a seeded starting point.
type cycle struct {
	order []int
	pos   int
}

func newCycle(weights []int, rng *rand.Rand) *cycle {
	c := &cycle{order: interleave(weights)}
	c.pos = rng.IntN(len(c.order))
	return c
}

func (c *cycle) next() int {
	k := c.order[c.pos]
	c.pos = (c.pos + 1) % len(c.order)
	return k
}

// seq hands out a generated sequence by index to concurrent clients. Item i
// is the same whichever client asks for it first, so the stream depends
// only on the seed.
type seq[T any] struct {
	mu    sync.Mutex
	items []T
	gen   func() T
}

func (s *seq[T]) at(i int) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		s.items = append(s.items, s.gen())
	}
	return s.items[i]
}

// coldKind is one combination of the jobs-cold dimensions that set a job's
// cost: part, resolution, orientation and whether the G-code is simulated.
type coldKind struct {
	part, res, orient string
	simulate          bool
}

// coldMix is the jobs-cold mix as exact weights per 800 jobs: part bar 40%,
// the other parts 20% each; coarse 50%, fine 35%, custom 15%; x-y/x-z
// 50/50; simulate 25%.
func coldMix() ([]coldKind, []int) {
	partW := []int{2, 1, 1, 1}
	resW := []int{10, 7, 3}
	simW := map[bool]int{true: 1, false: 3}
	var kinds []coldKind
	var weights []int
	for pi, p := range partNames {
		for ri, r := range resNames {
			for _, o := range orients {
				for _, sim := range []bool{false, true} {
					kinds = append(kinds, coldKind{part: p, res: r, orient: o, simulate: sim})
					weights = append(weights, partW[pi]*resW[ri]*simW[sim])
				}
			}
		}
	}
	return kinds, weights
}

// newColdSeq returns the jobs-cold request stream. restore_sphere is set on
// half of the sphere parts' jobs, and every job gets a fresh seed, so every
// request misses both cache tiers.
func newColdSeq(seed int64) *seq[serve.Request] {
	rng := newRNG(seed, 1)
	kinds, weights := coldMix()
	c := newCycle(weights, rng)
	return &seq[serve.Request]{gen: func() serve.Request {
		k := kinds[c.next()]
		return serve.Request{
			Part:          k.part,
			Resolution:    k.res,
			Orientation:   k.orient,
			RestoreSphere: sphereParts[k.part] && rng.IntN(2) == 1,
			Seed:          int64(rng.Uint64() >> 1),
			Simulate:      k.simulate,
		}
	}}
}

// hotKeySet returns the jobs-hot working set; key r has popularity rank r.
// Kinds cycle with rank (part r%4, coarse/fine alternating every four), so
// every seed gives the same artifact size at each rank and the same cache
// pressure; the seed picks orientation, restore_sphere and the job seed.
func hotKeySet(seed int64, n int) []serve.Request {
	rng := newRNG(seed, 2)
	out := make([]serve.Request, n)
	for r := range out {
		part := partNames[r%len(partNames)]
		out[r] = serve.Request{
			Part:          part,
			Resolution:    resNames[(r/len(partNames))%2],
			Orientation:   orients[rng.IntN(2)],
			RestoreSphere: sphereParts[part] && rng.IntN(2) == 1,
			Seed:          int64(rng.Uint64() >> 1),
		}
	}
	return out
}

// hotZipfS is the Zipf exponent of jobs-hot key popularity.
const hotZipfS = 1.1

// newHotSeq returns the jobs-hot stream of key ranks, Zipf-distributed over
// n keys.
func newHotSeq(seed int64, n int) *seq[int] {
	z := rand.NewZipf(newRNG(seed, 3), hotZipfS, 1, uint64(n-1))
	return &seq[int]{gen: func() int { return int(z.Uint64()) }}
}

// sanKind is one base design file of the sanitize workload: a part at a
// resolution, either carrying a stego payload or already canonical (clean).
type sanKind struct {
	part, res string
	embedded  bool
}

// sanMix is the sanitize body mix per 320 first sends: parts equal; coarse
// 45%, fine 45%, custom 10%; 75% embedded, 25% clean.
func sanMix() ([]sanKind, []int) {
	resW := []int{9, 9, 2}
	var kinds []sanKind
	var weights []int
	for _, p := range partNames {
		for ri, r := range resNames {
			for _, emb := range []bool{true, false} {
				w := resW[ri]
				if emb {
					w *= 3
				}
				kinds = append(kinds, sanKind{part: p, res: r, embedded: emb})
				weights = append(weights, w)
			}
		}
	}
	return kinds, weights
}

// sanReq describes one sanitize request: a first send of base body kind
// translated by shift whole quanta along x (which makes it a body the
// cluster has never seen, without touching its stego channels), or a
// re-send of the body of request of.
type sanReq struct {
	kind   int
	shift  int64
	resend bool
	of     int
}

// Re-sends repeat a body first sent between resendMinGap and resendMaxGap
// requests earlier, so the first send has almost always completed and the
// repeat is served from the cache.
const (
	resendMinGap = 8
	resendMaxGap = 40
)

// newSanSeq returns the sanitize request stream: three first sends for every
// re-send.
func newSanSeq(seed int64) *seq[sanReq] {
	rng := newRNG(seed, 4)
	_, weights := sanMix()
	kinds := newCycle(weights, rng)
	sends := newCycle([]int{3, 1}, rng)
	shift := int64(rng.IntN(1 << 16))
	s := &seq[sanReq]{}
	s.gen = func() sanReq {
		i := len(s.items)
		if sends.next() == 1 && i >= resendMaxGap {
			of := i - resendMinGap - rng.IntN(resendMaxGap-resendMinGap+1)
			if prev := s.items[of]; prev.resend {
				of = prev.of
			}
			return sanReq{resend: true, of: of}
		}
		shift++
		return sanReq{kind: kinds.next(), shift: shift}
	}
	return s
}

// binary STL layout: an 80-byte header, a facet count, then 50 bytes per
// facet (normal, three vertices, attribute word).
const (
	stlHeader = 84
	stlFacet  = 50
)

// translateSTL writes base translated by dx along x into buf (grown as
// needed) and returns it. Coordinates are on the sanitizer's quantum grid
// (plus quarter-quantum stego offsets) and dx is a whole number of quanta,
// so the sum is exact in float32 and the stego channels survive unchanged.
func translateSTL(buf, base []byte, dx float64) []byte {
	buf = append(buf[:0], base...)
	for off := stlHeader; off+stlFacet <= len(buf); off += stlFacet {
		for _, v := range []int{12, 24, 36} {
			p := buf[off+v:]
			x := math.Float32frombits(binary.LittleEndian.Uint32(p))
			binary.LittleEndian.PutUint32(p, math.Float32bits(float32(float64(x)+dx)))
		}
	}
	return buf
}

// sanShift is the x translation of shift quanta.
func sanShift(shift int64) float64 { return float64(shift) * stego.DefaultQuantum }
