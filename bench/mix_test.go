package main

import (
	"crypto/sha256"
	"math"
	"slices"
	"testing"

	"obfuscade/internal/serve"
)

func coldStream(seed int64, n int) []serve.Request {
	g := newColdSeq(seed)
	out := make([]serve.Request, n)
	for i := range out {
		out[i] = g.at(i)
	}
	return out
}

func sanStream(seed int64, n int) []sanReq {
	g := newSanSeq(seed)
	out := make([]sanReq, n)
	for i := range out {
		out[i] = g.at(i)
	}
	return out
}

func hotStream(seed int64, keys, n int) []int {
	g := newHotSeq(seed, keys)
	out := make([]int, n)
	for i := range out {
		out[i] = g.at(i)
	}
	return out
}

func TestSeedDeterminesRequests(t *testing.T) {
	const n = 2000
	if a, b := coldStream(1, n), coldStream(1, n); !slices.Equal(a, b) {
		t.Error("jobs-cold: same seed, different requests")
	}
	if a, b := coldStream(1, n), coldStream(2, n); slices.Equal(a, b) {
		t.Error("jobs-cold: different seeds, same requests")
	}
	if a, b := hotKeySet(1, 256), hotKeySet(1, 256); !slices.Equal(a, b) {
		t.Error("jobs-hot: same seed, different key sets")
	}
	if a, b := hotKeySet(1, 256), hotKeySet(2, 256); slices.Equal(a, b) {
		t.Error("jobs-hot: different seeds, same key sets")
	}
	if a, b := hotStream(1, 256, n), hotStream(1, 256, n); !slices.Equal(a, b) {
		t.Error("jobs-hot: same seed, different draws")
	}
	if a, b := hotStream(1, 256, n), hotStream(2, 256, n); slices.Equal(a, b) {
		t.Error("jobs-hot: different seeds, same draws")
	}
	if a, b := sanStream(1, n), sanStream(1, n); !slices.Equal(a, b) {
		t.Error("sanitize: same seed, different requests")
	}
	if a, b := sanStream(1, n), sanStream(2, n); slices.Equal(a, b) {
		t.Error("sanitize: different seeds, same requests")
	}
}

// TestSeedDeterminesBodies checks the sanitize bodies byte for byte: the
// same seed embeds the same payloads, another seed other ones, and clean
// bodies do not depend on the seed at all.
func TestSeedDeterminesBodies(t *testing.T) {
	digests := func(seed int64) [][32]byte {
		bodies, err := buildSanBodies(seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][32]byte, len(bodies))
		for i, b := range bodies {
			out[i] = sha256.Sum256(b.stl)
		}
		return out
	}
	a, b, c := digests(1), digests(1), digests(2)
	if !slices.Equal(a, b) {
		t.Error("same seed, different body digests")
	}
	kinds, _ := sanMix()
	for i, k := range kinds {
		if same := a[i] == c[i]; same == k.embedded {
			t.Errorf("%s/%s embedded=%t: digest equal across seeds = %t", k.part, k.res, k.embedded, same)
		}
	}
}

// within fails the test when got is more than 3 points from want.
func within(t *testing.T, what string, count, total int, want float64) {
	t.Helper()
	got := float64(count) / float64(total)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("%s: %.3f of %d, want %.2f ± 0.03", what, got, total, want)
	}
}

func TestColdMixProportions(t *testing.T) {
	// A timed phase sees a few hundred jobs; the shares must hold there.
	for _, n := range []int{300, 4000} {
		reqs := coldStream(5, n)
		count := map[string]int{}
		sphere, restored := 0, 0
		for _, r := range reqs {
			count["part="+r.Part]++
			count["res="+r.Resolution]++
			count["orient="+r.Orientation]++
			if r.Simulate {
				count["simulate"]++
			}
			if sphereParts[r.Part] {
				sphere++
				if r.RestoreSphere {
					restored++
				}
			} else if r.RestoreSphere {
				t.Fatalf("restore_sphere on %s, which has no sphere", r.Part)
			}
		}
		for key, want := range map[string]float64{
			"part=bar": 0.4, "part=bar-sphere": 0.2, "part=double-bar": 0.2, "part=prism": 0.2,
			"res=coarse": 0.5, "res=fine": 0.35, "res=custom": 0.15,
			"orient=x-y": 0.5, "orient=x-z": 0.5, "simulate": 0.25,
		} {
			within(t, key, count[key], n, want)
		}
		if n > 1000 {
			within(t, "restore_sphere on sphere parts", restored, sphere, 0.5)
		}
	}
}

func TestSanitizeMixProportions(t *testing.T) {
	const n = 4000
	reqs := sanStream(9, n)
	kinds, _ := sanMix()
	resends, firsts := 0, 0
	count := map[string]int{}
	for i, r := range reqs {
		if r.resend {
			resends++
			if gap := i - r.of; gap < resendMinGap || reqs[r.of].resend {
				t.Fatalf("request %d re-sends %d: gap %d, or not a first send", i, r.of, gap)
			}
			continue
		}
		firsts++
		k := kinds[r.kind]
		count["res="+k.res]++
		if k.embedded {
			count["embedded"]++
		}
	}
	within(t, "re-sends", resends, n, 0.25)
	for key, want := range map[string]float64{"res=coarse": 0.45, "res=fine": 0.45, "res=custom": 0.10, "embedded": 0.75} {
		within(t, key, count[key], firsts, want)
	}
	// First sends translate by distinct whole quanta, so no two upload the
	// same bytes.
	seen := map[[2]int64]bool{}
	for _, r := range reqs {
		if r.resend {
			continue
		}
		k := [2]int64{int64(r.kind), r.shift}
		if seen[k] {
			t.Fatalf("two first sends of kind %d at shift %d", r.kind, r.shift)
		}
		seen[k] = true
	}
}

func TestHotMix(t *testing.T) {
	keys := hotKeySet(3, hotKeyCount)
	coarse := 0
	for _, k := range keys {
		if k.Resolution == "coarse" {
			coarse++
		}
	}
	within(t, "coarse keys", coarse, len(keys), 0.5)
	draws := hotStream(3, hotKeyCount, 20000)
	hits := make([]int, hotKeyCount)
	for _, d := range draws {
		hits[d]++
	}
	// Zipf(s) over n ranks: rank 0 draws 1/H(n, s) of requests, and
	// popularity falls with rank.
	h := 0.0
	for r := 1; r <= hotKeyCount; r++ {
		h += math.Pow(float64(r), -hotZipfS)
	}
	within(t, "rank 0", hits[0], len(draws), 1/h)
	if !(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[200]) {
		t.Errorf("popularity does not fall with rank: %d %d %d %d", hits[0], hits[1], hits[10], hits[200])
	}
}

func TestInterleaveKeepsSharesInEveryPrefix(t *testing.T) {
	w := []int{10, 7, 3}
	order := interleave(w)
	if len(order) != 20 {
		t.Fatalf("cycle length %d, want 20", len(order))
	}
	seen := make([]int, len(w))
	for i, k := range order {
		seen[k]++
		for j := range w {
			if exact := float64(w[j]*(i+1)) / 20; math.Abs(float64(seen[j])-exact) > 1 {
				t.Fatalf("after %d items kind %d seen %d times, want %.2f ± 1", i+1, j, seen[j], exact)
			}
		}
	}
}
