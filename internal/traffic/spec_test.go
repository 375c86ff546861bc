package traffic

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestProcessSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ProcessSpec
		ok   bool
	}{
		{"bernoulli", ProcessSpec{Kind: BernoulliProcess, P: 0.5}, true},
		{"bernoulli-p-too-big", ProcessSpec{Kind: BernoulliProcess, P: 1.5}, false},
		{"bernoulli-negative-p", ProcessSpec{Kind: BernoulliProcess, P: -0.1}, false},
		{"bernoulli-with-interval", ProcessSpec{Kind: BernoulliProcess, P: 0.5, Interval: 3}, false},
		{"periodic", ProcessSpec{Kind: PeriodicProcess, Interval: 50}, true},
		{"periodic-zero-interval", ProcessSpec{Kind: PeriodicProcess}, false},
		{"periodic-negative-phase", ProcessSpec{Kind: PeriodicProcess, Interval: 5, Phase: -1}, false},
		{"periodic-with-p", ProcessSpec{Kind: PeriodicProcess, Interval: 5, P: 0.1}, false},
		{"idle", ProcessSpec{Kind: IdleProcess}, true},
		{"idle-with-params", ProcessSpec{Kind: IdleProcess, P: 0.1}, false},
		{"unknown", ProcessSpec{Kind: "poisson"}, false},
		{"empty", ProcessSpec{}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}

func TestProcessSpecBuildMatchesLiterals(t *testing.T) {
	b, err := (ProcessSpec{Kind: BernoulliProcess, P: 0.25}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if b != (Bernoulli{P: 0.25}) {
		t.Errorf("bernoulli build = %#v", b)
	}
	p, err := (ProcessSpec{Kind: PeriodicProcess, Interval: 40, Phase: 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if p != (Periodic{Interval: 40, Phase: 3}) {
		t.Errorf("periodic build = %#v", p)
	}
	i, err := (ProcessSpec{Kind: IdleProcess}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if i != (Idle{}) {
		t.Errorf("idle build = %#v", i)
	}
}

func TestScheduleSpecValidate(t *testing.T) {
	good := ScheduleSpec{Phases: []PhaseSpec{
		{Duration: 100, Pattern: UniformRandom, Process: ProcessSpec{Kind: BernoulliProcess, P: 0.1}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	long := PhaseSpec{Duration: SteadyDuration, Pattern: UniformRandom, Process: ProcessSpec{Kind: BernoulliProcess, P: 0.1}}
	bad := []struct {
		spec    ScheduleSpec
		wantErr string
	}{
		{ScheduleSpec{}, "at least one phase"},
		{ScheduleSpec{Phases: []PhaseSpec{{Duration: 0, Pattern: UniformRandom, Process: ProcessSpec{Kind: IdleProcess}}}}, "phase 0"},
		{ScheduleSpec{Phases: []PhaseSpec{{Duration: 10, Pattern: "nope", Process: ProcessSpec{Kind: IdleProcess}}}}, "phase 0"},
		{ScheduleSpec{Phases: []PhaseSpec{{Duration: 10, Pattern: UniformRandom, Process: ProcessSpec{Kind: "nope"}}}}, "phase 0"},
		// Two steady-length phases sum past MaxInt64: the total would
		// wrap negative and the run would silently generate nothing.
		{ScheduleSpec{Phases: []PhaseSpec{long, long}}, "phase 1"},
		// Four looping ones wrap to exactly 0, and At would divide by it.
		{fourPhaseLoop(), "phase 1"},
	}
	for i, tc := range bad {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("bad spec %d accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("bad spec %d: error %q does not mention %q", i, err, tc.wantErr)
		}
		if _, err := tc.spec.Build(64); err == nil {
			t.Errorf("bad spec %d builds", i)
		}
	}
	edge := ScheduleSpec{Phases: []PhaseSpec{long, long}}
	edge.Phases[1].Duration = math.MaxInt64 - SteadyDuration
	if err := edge.Validate(); err != nil {
		t.Errorf("durations summing to exactly MaxInt64 rejected: %v", err)
	}
}

// fourPhaseLoop is a looping schedule of four steady-length phases,
// whose durations sum to 2^64.
func fourPhaseLoop() ScheduleSpec {
	ph := PhaseSpec{Duration: SteadyDuration, Pattern: UniformRandom, Process: ProcessSpec{Kind: PeriodicProcess, Interval: 3}}
	return ScheduleSpec{Phases: []PhaseSpec{ph, ph, ph, ph}, Loop: true}
}

// FuzzScheduleSpec feeds arbitrary bytes to the ScheduleSpec wire form.
// Validate and Build must never panic; a spec that builds must answer
// At at its edges, and its encoding must round-trip unchanged.
func FuzzScheduleSpec(f *testing.F) {
	loop := fourPhaseLoop()
	for _, s := range []*ScheduleSpec{
		SteadySpec(UniformRandom, ProcessSpec{Kind: BernoulliProcess, P: 0.02}),
		PaperBurstySpec(PaperBurstyOptions{}),
		&loop,
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s ScheduleSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		valid := s.Validate() == nil
		for _, nodes := range []int{64, 256} {
			sched, err := s.Build(nodes)
			if err != nil {
				continue
			}
			if !valid {
				t.Fatalf("Build(%d) accepted a spec Validate rejects", nodes)
			}
			total := sched.TotalDuration()
			if total <= 0 || total != s.TotalDuration() {
				t.Fatalf("Build(%d) total %d, spec total %d", nodes, total, s.TotalDuration())
			}
			for _, now := range []int64{0, total - 1, total, math.MaxInt64} {
				sched.At(now)
			}
		}
		if !valid {
			return
		}
		out, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back ScheduleSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-parse of own encoding: %v\n%s", err, out)
		}
		again, err := json.Marshal(&back)
		if err != nil || string(again) != string(out) {
			t.Fatalf("round trip changed encoding (err %v):\n%s\n%s", err, out, again)
		}
	})
}

// TestPaperBurstySpecMatchesSchedule checks that the declarative spec
// compiles into exactly the schedule the imperative constructor builds:
// same phase boundaries, same processes, same generated traffic.
func TestPaperBurstySpecMatchesSchedule(t *testing.T) {
	const nodes = 256
	opt := PaperBurstyOptions{LowDuration: 600, HighDuration: 900}
	spec := PaperBurstySpec(opt)
	if got, want := spec.TotalDuration(), int64(5*600+4*900); got != want {
		t.Fatalf("spec duration %d, want %d", got, want)
	}
	built, err := spec.Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := PaperBurstySchedule(nodes, opt)
	if err != nil {
		t.Fatal(err)
	}
	if built.TotalDuration() != direct.TotalDuration() || len(built.Phases) != len(direct.Phases) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", built.TotalDuration(), len(built.Phases),
			direct.TotalDuration(), len(direct.Phases))
	}
	// Same generated traffic from identical RNG streams.
	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for now := int64(0); now < built.TotalDuration(); now += 37 {
		d1, ok1 := built.Generate(now, 5, rng1)
		d2, ok2 := direct.Generate(now, 5, rng2)
		if ok1 != ok2 || d1 != d2 {
			t.Fatalf("cycle %d: spec-built (%v,%v) != direct (%v,%v)", now, d1, ok1, d2, ok2)
		}
	}
}

func TestSteadySpecMatchesSteady(t *testing.T) {
	spec := SteadySpec(UniformRandom, ProcessSpec{Kind: PeriodicProcess, Interval: 50})
	built, err := spec.Build(64)
	if err != nil {
		t.Fatal(err)
	}
	pat := mustPattern(UniformRandom, 64)
	direct := Steady(pat, Periodic{Interval: 50})
	if built.TotalDuration() != direct.TotalDuration() {
		t.Fatalf("durations differ: %d vs %d", built.TotalDuration(), direct.TotalDuration())
	}
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	for now := int64(0); now < 500; now++ {
		d1, ok1 := built.Generate(now, 9, rng1)
		d2, ok2 := direct.Generate(now, 9, rng2)
		if ok1 != ok2 || d1 != d2 {
			t.Fatalf("cycle %d: spec-built (%v,%v) != direct (%v,%v)", now, d1, ok1, d2, ok2)
		}
	}
}

func TestScheduleSpecJSONRoundTrip(t *testing.T) {
	spec := PaperBurstySpec(PaperBurstyOptions{})
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back ScheduleSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("round trip changed encoding:\n%s\n%s", data, again)
	}
}
