package traffic

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern(UniformRandom, 1); err == nil {
		t.Error("1-node network should be rejected")
	}
	if _, err := NewPattern(Butterfly, 100); err == nil {
		t.Error("non-power-of-two butterfly should be rejected")
	}
	if _, err := NewPattern(PatternKind("nope"), 16); err == nil {
		t.Error("unknown pattern should be rejected")
	}
	for _, k := range []PatternKind{UniformRandom, BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement, HotspotKind} {
		if _, err := NewPattern(k, 256); err != nil {
			t.Errorf("NewPattern(%s,256): %v", k, err)
		}
	}
}

func TestMustPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustPattern(Butterfly, 100)
}

func TestUniformRandomNeverSelf(t *testing.T) {
	p := MustPattern(UniformRandom, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		src := topology.NodeID(i % 8)
		d := p.Dest(src, rng)
		if d == src {
			t.Fatal("uniform random returned the source")
		}
		if d < 0 || d >= 8 {
			t.Fatalf("destination out of range: %d", d)
		}
	}
}

func TestUniformRandomCoversAll(t *testing.T) {
	p := MustPattern(UniformRandom, 16)
	rng := rand.New(rand.NewSource(2))
	seen := map[topology.NodeID]int{}
	for i := 0; i < 16*400; i++ {
		seen[p.Dest(0, rng)]++
	}
	for d := topology.NodeID(1); d < 16; d++ {
		if seen[d] == 0 {
			t.Errorf("destination %d never chosen", d)
		}
	}
	if seen[0] != 0 {
		t.Error("source chosen as destination")
	}
}

// Paper definitions on bit coordinates (a_{n-1}, ..., a_1, a_0).
func TestButterflySwapsMSBAndLSB(t *testing.T) {
	p := MustPattern(Butterfly, 256) // 8 bits
	cases := map[topology.NodeID]topology.NodeID{
		0b00000000: 0b00000000,
		0b10000000: 0b00000001,
		0b00000001: 0b10000000,
		0b10000001: 0b10000001,
		0b10110010: 0b00110011,
	}
	for src, want := range cases {
		if got := p.Dest(src, nil); got != want {
			t.Errorf("butterfly(%08b) = %08b, want %08b", src, got, want)
		}
	}
}

func TestBitReversal(t *testing.T) {
	p := MustPattern(BitReversal, 256)
	cases := map[topology.NodeID]topology.NodeID{
		0b00000001: 0b10000000,
		0b11010010: 0b01001011,
		0b11111111: 0b11111111,
	}
	for src, want := range cases {
		if got := p.Dest(src, nil); got != want {
			t.Errorf("bitrev(%08b) = %08b, want %08b", src, got, want)
		}
	}
}

func TestPerfectShuffleRotatesLeft(t *testing.T) {
	p := MustPattern(PerfectShuffle, 256)
	cases := map[topology.NodeID]topology.NodeID{
		0b10000000: 0b00000001,
		0b00000001: 0b00000010,
		0b01000001: 0b10000010,
	}
	for src, want := range cases {
		if got := p.Dest(src, nil); got != want {
			t.Errorf("shuffle(%08b) = %08b, want %08b", src, got, want)
		}
	}
}

func TestTransposeAndComplement(t *testing.T) {
	tr := MustPattern(Transpose, 256)
	if got := tr.Dest(0b10100101, nil); got != 0b01011010 {
		t.Errorf("transpose = %08b", got)
	}
	cp := MustPattern(BitComplement, 256)
	if got := cp.Dest(0b10100101, nil); got != 0b01011010 {
		t.Errorf("complement = %08b", got)
	}
	if got := cp.Dest(0, nil); got != 255 {
		t.Errorf("complement(0) = %d", got)
	}
}

// Property: every bit-permutation pattern is a bijection on the node set.
func TestBitPatternsAreBijections(t *testing.T) {
	for _, kind := range []PatternKind{BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement} {
		p := MustPattern(kind, 256)
		seen := make([]bool, 256)
		for src := topology.NodeID(0); src < 256; src++ {
			d := p.Dest(src, nil)
			if d < 0 || d >= 256 {
				t.Fatalf("%s: out of range %d", kind, d)
			}
			if seen[d] {
				t.Fatalf("%s: destination %d repeated", kind, d)
			}
			seen[d] = true
		}
	}
}

// Property: patterns are involutions where expected (bit reversal,
// complement, transpose, butterfly are self-inverse).
func TestSelfInversePatterns(t *testing.T) {
	for _, kind := range []PatternKind{BitReversal, BitComplement, Transpose, Butterfly} {
		p := MustPattern(kind, 1024)
		f := func(raw uint16) bool {
			src := topology.NodeID(int(raw) % 1024)
			return p.Dest(p.Dest(src, nil), nil) == src
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	h := NewHotspot(64, 5, 0.3)
	rng := rand.New(rand.NewSource(3))
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.Dest(9, rng) == 5 {
			hot++
		}
	}
	got := float64(hot) / n
	// Hot node also receives ~1/63 of the uniform remainder.
	want := 0.3 + 0.7/63
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hotspot fraction = %v, want ~%v", got, want)
	}
}

func TestHotspotClamps(t *testing.T) {
	if NewHotspot(8, 0, -1).fraction != 0 {
		t.Error("negative fraction not clamped")
	}
	if NewHotspot(8, 0, 2).fraction != 1 {
		t.Error("fraction > 1 not clamped")
	}
}

func TestHotspotFromHotNode(t *testing.T) {
	h := NewHotspot(16, 3, 1.0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if h.Dest(3, rng) == 3 {
			t.Fatal("hot node sent to itself")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	b := Bernoulli{P: 0.01}
	rng := rand.New(rand.NewSource(5))
	hits := 0
	const n = 200000
	for i := int64(0); i < n; i++ {
		if b.Generate(i, rng) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.01) > 0.002 {
		t.Errorf("bernoulli empirical rate = %v", got)
	}
	if b.Rate() != 0.01 {
		t.Errorf("Rate() = %v", b.Rate())
	}
	if (Bernoulli{P: 0}).Generate(0, rng) {
		t.Error("zero-rate bernoulli generated")
	}
}

func TestPeriodicExact(t *testing.T) {
	p := Periodic{Interval: 100}
	count := 0
	for now := int64(0); now < 1000; now++ {
		if p.Generate(now, nil) {
			count++
			if now%100 != 0 {
				t.Fatalf("generated off-interval at %d", now)
			}
		}
	}
	if count != 10 {
		t.Errorf("generated %d packets in 1000 cycles, want 10", count)
	}
	if p.Rate() != 0.01 {
		t.Errorf("Rate = %v", p.Rate())
	}
}

func TestPeriodicPhaseAndDegenerate(t *testing.T) {
	p := Periodic{Interval: 10, Phase: 3}
	if p.Generate(0, nil) {
		t.Error("generated before phase")
	}
	if !p.Generate(3, nil) || !p.Generate(13, nil) {
		t.Error("missed phased generation")
	}
	bad := Periodic{Interval: 0}
	if bad.Generate(0, nil) || bad.Rate() != 0 {
		t.Error("degenerate periodic should be idle")
	}
}

func TestIdle(t *testing.T) {
	var p Idle
	if p.Generate(0, nil) || p.Rate() != 0 {
		t.Error("Idle should never generate")
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(nil, false); err == nil {
		t.Error("empty schedule accepted")
	}
	pat := MustPattern(UniformRandom, 4)
	if _, err := NewSchedule([]Phase{{Duration: 0, Pattern: pat, Process: Idle{}}}, false); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewSchedule([]Phase{{Duration: 5, Pattern: nil, Process: Idle{}}}, false); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := NewSchedule([]Phase{{Duration: 5, Pattern: pat, Process: nil}}, false); err == nil {
		t.Error("nil process accepted")
	}
	long := Phase{Duration: 1 << 62, Pattern: pat, Process: Idle{}}
	if _, err := NewSchedule([]Phase{long, long}, false); err == nil || !strings.Contains(err.Error(), "phase 1") {
		t.Errorf("durations summing past MaxInt64: err %v, want one naming phase 1", err)
	}
	if _, err := NewSchedule([]Phase{{Duration: math.MaxInt64 - 5, Pattern: pat, Process: Idle{}},
		{Duration: 5, Pattern: pat, Process: Idle{}}}, true); err != nil {
		t.Errorf("durations summing to exactly MaxInt64 rejected: %v", err)
	}
}

func TestScheduleAt(t *testing.T) {
	pat := MustPattern(UniformRandom, 4)
	s, err := NewSchedule([]Phase{
		{Duration: 100, Pattern: pat, Process: Bernoulli{P: 0.1}},
		{Duration: 50, Pattern: pat, Process: Bernoulli{P: 0.5}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalDuration() != 150 {
		t.Errorf("TotalDuration = %d", s.TotalDuration())
	}
	if got := s.At(0).Process.Rate(); got != 0.1 {
		t.Errorf("phase at 0 rate = %v", got)
	}
	if got := s.At(99).Process.Rate(); got != 0.1 {
		t.Errorf("phase at 99 rate = %v", got)
	}
	if got := s.At(100).Process.Rate(); got != 0.5 {
		t.Errorf("phase at 100 rate = %v", got)
	}
	if s.At(150) != nil {
		t.Error("non-looping schedule should end")
	}
	if s.At(-1) != nil {
		t.Error("negative cycle should have no phase")
	}
}

func TestScheduleLoop(t *testing.T) {
	pat := MustPattern(UniformRandom, 4)
	s, _ := NewSchedule([]Phase{
		{Duration: 10, Pattern: pat, Process: Bernoulli{P: 0.1}},
		{Duration: 10, Pattern: pat, Process: Bernoulli{P: 0.9}},
	}, true)
	if got := s.At(25).Process.Rate(); got != 0.1 {
		t.Errorf("looped phase rate = %v", got)
	}
}

func TestSteadyNeverEnds(t *testing.T) {
	s := Steady(MustPattern(UniformRandom, 4), Bernoulli{P: 0.1})
	if s.At(1<<40) == nil {
		t.Error("steady schedule ended")
	}
}

func TestScheduleGenerateSkipsFixedPoints(t *testing.T) {
	// Butterfly fixes nodes whose MSB == LSB; those nodes must not emit.
	pat := MustPattern(Butterfly, 16)
	s := Steady(pat, Periodic{Interval: 1})
	rng := rand.New(rand.NewSource(6))
	fixed := topology.NodeID(0b1001) // MSB==LSB==1 -> maps to itself
	if pat.Dest(fixed, nil) != fixed {
		t.Fatal("test premise wrong: 0b1001 should be a butterfly fixed point")
	}
	if _, ok := s.Generate(0, fixed, rng); ok {
		t.Error("fixed-point node generated a packet to itself")
	}
	moving := topology.NodeID(0b1000)
	if dst, ok := s.Generate(0, moving, rng); !ok || dst != pat.Dest(moving, nil) {
		t.Error("non-fixed node should generate")
	}
}

func TestPaperBurstySchedule(t *testing.T) {
	s, err := PaperBurstySchedule(256, PaperBurstyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 bursts -> low,high x4, plus trailing low = 9 phases.
	if len(s.Phases) != 9 {
		t.Fatalf("phases = %d, want 9", len(s.Phases))
	}
	wantBursts := []string{"random", "bitreversal", "shuffle", "butterfly"}
	for i, want := range wantBursts {
		ph := s.Phases[2*i+1]
		if ph.Pattern.Name() != want {
			t.Errorf("burst %d pattern = %s, want %s", i, ph.Pattern.Name(), want)
		}
		if ph.Process.Rate() <= s.Phases[2*i].Process.Rate() {
			t.Errorf("burst %d not higher load than low phase", i)
		}
	}
	// Paper rates: low 1/1500, high 1/15.
	if got := s.Phases[0].Process.Rate(); math.Abs(got-1.0/1500) > 1e-12 {
		t.Errorf("low rate = %v", got)
	}
	if got := s.Phases[1].Process.Rate(); math.Abs(got-1.0/15) > 1e-12 {
		t.Errorf("high rate = %v", got)
	}
}

func TestPaperBurstyScheduleRejectsBadPattern(t *testing.T) {
	_, err := PaperBurstySchedule(100, PaperBurstyOptions{Bursts: []BurstSpec{{Pattern: Butterfly}}})
	if err == nil {
		t.Error("butterfly on 100 nodes should fail")
	}
}

func TestPatternNames(t *testing.T) {
	for _, k := range []PatternKind{UniformRandom, BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement} {
		if MustPattern(k, 64).Name() != string(k) {
			t.Errorf("name mismatch for %s", k)
		}
	}
}
