package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// SpecVersion is the experiment-spec format version this build reads
// and writes. Like sim.ConfigVersion it gates parsing, so a spec from
// an incompatible future format fails loudly.
const SpecVersion = 1

// Point is one simulation of an experiment grid: a label (reused for
// result rows and error context, e.g. "random rate 0.02") and the full
// serializable configuration.
type Point struct {
	Label  string     `json:"label"`
	Config sim.Config `json:"config"`
}

// Group is a named block of points; for rate-sweep experiments each
// group is one plotted curve.
type Group struct {
	Name   string  `json:"name,omitempty"`
	Points []Point `json:"points"`
}

// Spec is the declarative form of an experiment: everything needed to
// run it, serializable, with no code attached. The registry builds a
// Spec per experiment; Runner.RunSpec executes any Spec generically;
// "stcc emit-spec <name>" writes one to stdout.
type Spec struct {
	Version int     `json:"version"`
	Name    string  `json:"name"`
	Title   string  `json:"title,omitempty"`
	Groups  []Group `json:"groups"`
}

// NewSpec returns an empty spec with the current version stamped.
func NewSpec(name, title string) *Spec {
	return &Spec{Version: SpecVersion, Name: name, Title: title}
}

// AddGroup appends a group assembled from (label, config) pairs built
// by the caller.
func (s *Spec) AddGroup(name string, points ...Point) {
	s.Groups = append(s.Groups, Group{Name: name, Points: points})
}

// Validate checks the spec's shape and every point's configuration.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("experiments: unsupported spec version %d (this build reads version %d)",
			s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("experiments: spec needs a name")
	}
	for gi, g := range s.Groups {
		for pi, p := range g.Points {
			// Specs are the serializable form of an experiment, so a point
			// carrying in-process-only state (a live Schedule, a custom
			// throttler) is rejected even when assembled in memory — it
			// could never round-trip, cache, or re-run from disk.
			if err := p.Config.Serializable(); err != nil {
				return fmt.Errorf("experiments: spec %s group %d point %d (%s): %w",
					s.Name, gi, pi, p.Label, err)
			}
			if err := p.Config.Validate(); err != nil {
				return fmt.Errorf("experiments: spec %s group %d point %d (%s): %w",
					s.Name, gi, pi, p.Label, err)
			}
		}
	}
	return nil
}

// Points flattens the grid in execution order: groups in order, points
// in order within each group.
func (s *Spec) Points() []Point {
	var out []Point
	for _, g := range s.Groups {
		out = append(out, g.Points...)
	}
	return out
}

// NumPoints returns the grid size without flattening.
func (s *Spec) NumPoints() int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Points)
	}
	return n
}

// Fingerprint is the content address of the whole grid: the hex
// SHA-256 of the spec's canonical JSON. It is preserved by the
// JSON round trip (sim.Config's encoder is canonical), which
// TestRegistrySpecsRoundTrip asserts for every registry entry at both
// scales.
func (s *Spec) Fingerprint() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec parses a spec strictly — unknown fields anywhere (including
// inside each point's config) are errors — and validates it.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// RunSpec executes every point of the spec on the runner's worker pool
// (consulting the result cache when one is attached) and returns
// results grouped like the spec. A failing point is reported as
// "<spec name> <point label>: <cause>".
func (r Runner) RunSpec(spec *Spec) ([][]sim.Result, error) {
	points := spec.Points()
	flat := make([]sim.Result, len(points))
	err := r.forEach(len(points), func(ctx context.Context, slot *sim.Slot, i int) error {
		res, ev, err := r.runPoint(ctx, slot, points[i].Config)
		if err != nil {
			return fmt.Errorf("%s %s: %w", spec.Name, points[i].Label, err)
		}
		flat[i] = res
		if r.OnPoint != nil {
			ev.Index, ev.Total, ev.Label = i, len(points), points[i].Label
			r.OnPoint(ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(spec.Groups))
	at := 0
	for gi, g := range spec.Groups {
		out[gi] = flat[at : at+len(g.Points)]
		at += len(g.Points)
	}
	return out, nil
}
