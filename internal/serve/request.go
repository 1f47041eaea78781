package serve

import (
	"encoding/json"
	"fmt"

	"obfuscade/internal/cache"
	"obfuscade/internal/core"
	"obfuscade/internal/mech"
	"obfuscade/internal/tessellate"
)

// Request is one obfuscation job submission. The zero value of every
// field is a valid default, so `{}` is a complete request (coarse bar,
// flat orientation, seed 0, no simulation).
type Request struct {
	// Part names the protected design: bar, bar-sphere, double-bar or
	// prism (see core.BuildProtected). Default bar.
	Part string `json:"part,omitempty"`
	// Resolution is the STL export preset: coarse, fine or custom.
	// Default coarse.
	Resolution string `json:"resolution,omitempty"`
	// Orientation is the print orientation: x-y (or xy) or x-z (or xz),
	// normalized to the hyphenated form. Default x-y.
	Orientation string `json:"orientation,omitempty"`
	// RestoreSphere applies the secret sphere-restore CAD operation.
	RestoreSphere bool `json:"restore_sphere,omitempty"`
	// Seed is the process noise seed stamped into the provenance.
	Seed int64 `json:"seed,omitempty"`
	// Simulate runs the G-code simulator and reports print time.
	Simulate bool `json:"simulate,omitempty"`
	// TimeoutMS bounds this job's pipeline wall time. Zero uses the
	// server default. Deliberately excluded from the cache key: a
	// deadline changes when a job fails, never what it produces.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// parts is the serving vocabulary of core.BuildProtected.
var parts = map[string]bool{"bar": true, "bar-sphere": true, "double-bar": true, "prism": true}

// Normalize fills defaults and validates the request, returning the
// canonical form used for cache addressing. Two requests that normalize
// equal produce byte-identical artifacts.
func (r Request) Normalize() (Request, error) {
	if r.Part == "" {
		r.Part = "bar"
	}
	if !parts[r.Part] {
		return r, fmt.Errorf("serve: unknown part %q (want bar, bar-sphere, double-bar or prism)", r.Part)
	}
	if r.Resolution == "" {
		r.Resolution = "coarse"
	}
	res, err := tessellate.ByName(r.Resolution)
	if err != nil {
		return r, fmt.Errorf("serve: %w", err)
	}
	r.Resolution = res.Name
	if r.Orientation == "" {
		r.Orientation = mech.XY.String()
	}
	o, err := mech.ParseOrientation(r.Orientation)
	if err != nil {
		return r, fmt.Errorf("serve: %w", err)
	}
	r.Orientation = o.String()
	if r.TimeoutMS < 0 {
		return r, fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	return r, nil
}

// spec converts a normalized request into the job it describes.
func (r Request) spec() (core.JobSpec, error) {
	res, err := tessellate.ByName(r.Resolution)
	if err != nil {
		return core.JobSpec{}, err
	}
	o, err := mech.ParseOrientation(r.Orientation)
	if err != nil {
		return core.JobSpec{}, err
	}
	return core.JobSpec{
		Part:     r.Part,
		Key:      core.Key{Resolution: res, Orientation: o, RestoreSphere: r.RestoreSphere},
		Seed:     r.Seed,
		Simulate: r.Simulate,
	}, nil
}

// canonicalRequest is the cache-key encoding of a normalized request:
// the fields that determine output bytes, plus the pipeline version so
// a deploy that changes output invalidates older cached results. Field
// order is fixed; encoding/json preserves struct order, so the bytes
// are stable across runs and builds.
type canonicalRequest struct {
	Version       string `json:"version"`
	Part          string `json:"part"`
	Resolution    string `json:"resolution"`
	Orientation   string `json:"orientation"`
	RestoreSphere bool   `json:"restore_sphere"`
	Seed          int64  `json:"seed"`
	Simulate      bool   `json:"simulate"`
}

// CacheKey content-addresses a normalized request. TimeoutMS is
// excluded (it cannot change the artifact), and core.PipelineVersion is
// included (a pipeline change must miss).
func (r Request) CacheKey() cache.Key {
	data, err := json.Marshal(canonicalRequest{
		Version:       core.PipelineVersion,
		Part:          r.Part,
		Resolution:    r.Resolution,
		Orientation:   r.Orientation,
		RestoreSphere: r.RestoreSphere,
		Seed:          r.Seed,
		Simulate:      r.Simulate,
	})
	if err != nil {
		// Marshalling a flat struct of strings/ints cannot fail.
		panic(err)
	}
	return cache.KeyOf(data)
}
