package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Submission is a parsed experiment submission: the normalized form of
// the three JSON shapes "stcc run -spec" and the stcc-serve POST
// /v1/jobs endpoint accept —
//
//   - a registry reference, {"name":"fig3","scale":"quick"} (scale
//     optional, default quick), naming an experiment from "stcc list";
//   - a full Spec, the schema "stcc emit-spec" writes
//     (recognized by its "groups" key);
//   - a bare sim.Config (recognized by its "k" key), wrapped into a
//     one-point spec.
//
// Parsing is strict in every branch: unknown fields, unknown enum
// names, and unsupported versions are errors, never defaults.
type Submission struct {
	// Name is the registry entry, when submitted by reference; empty
	// for spec and config submissions.
	Name string
	// ScaleName and Scale are the run length for registry submissions
	// ("quick" unless the reference says otherwise).
	ScaleName string
	Scale     Scale
	// Spec is the grid to execute. For registry references it is the
	// entry's grid at the requested scale: exactly the grid the entry's
	// Run executes, so its point count and fingerprint describe the job.
	Spec *Spec
}

// registryRef is the wire form of a by-name submission.
type registryRef struct {
	Name  string `json:"name"`
	Scale string `json:"scale,omitempty"`
}

// ParseSubmission interprets raw JSON as one of the accepted submission
// forms. See Submission for the recognized shapes.
func ParseSubmission(data []byte) (*Submission, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("submission is not a JSON object: %w", err)
	}
	switch {
	case hasKey(keys, "groups"):
		spec, err := ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return &Submission{Spec: spec}, nil

	case hasKey(keys, "k"):
		var cfg sim.Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		spec := NewSpec("config", "")
		spec.AddGroup("", Point{Label: "config", Config: cfg})
		return &Submission{Spec: spec}, nil

	case hasKey(keys, "name"):
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var ref registryRef
		if err := dec.Decode(&ref); err != nil {
			return nil, fmt.Errorf("parsing registry reference: %w", err)
		}
		e, ok := Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (see \"stcc list\" or GET /v1/registry)", ref.Name)
		}
		if ref.Scale == "" {
			ref.Scale = "quick"
		}
		scale, err := ParseScale(ref.Scale)
		if err != nil {
			return nil, err
		}
		return &Submission{Name: e.Name, ScaleName: ref.Scale, Scale: scale, Spec: e.Spec(scale)}, nil
	}
	return nil, fmt.Errorf("unrecognized submission: want a registry reference {\"name\":...}, " +
		"an experiment spec (with \"groups\"), or a sim config (with \"k\")")
}

func hasKey(keys map[string]json.RawMessage, k string) bool {
	_, ok := keys[k]
	return ok
}

// Run executes the submission on r and writes its text report to out.
// A registry reference runs its entry through Entry.Run, so analytic
// entries and figure-shaped reports work too, and returns no results. A
// spec or config runs its grid, prints PrintSpecResults, and returns the
// results grouped like the spec. "stcc run -spec" and the stcc-serve
// job manager both run submissions through here.
func (s *Submission) Run(r Runner, out io.Writer) ([][]sim.Result, error) {
	if s.Name != "" {
		e, ok := Lookup(s.Name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", s.Name)
		}
		return nil, e.Run(RunContext{Runner: r, Scale: s.Scale, Out: out})
	}
	grouped, err := r.RunSpec(s.Spec)
	if err != nil {
		return nil, err
	}
	PrintSpecResults(out, s.Spec, grouped)
	return grouped, nil
}
