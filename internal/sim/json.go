package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/traffic"
)

// ConfigVersion is the spec format version this build reads and writes.
// The version is the first thing Unmarshal checks, so a config written
// by a future incompatible format fails loudly instead of half-parsing.
const ConfigVersion = 1

// configJSON is the versioned wire form of Config. Field order here is
// the canonical encoding order Fingerprint hashes; enums marshal as
// their String() names (strictly — unknown names are rejected, never
// defaulted). Two in-process-only fields have no wire form: a live
// *traffic.Schedule and a Scheme.Custom throttler make a Config
// unserializable, and Marshal says so.
type configJSON struct {
	Version int `json:"version"`

	K            int `json:"k"`
	N            int `json:"n"`
	VCs          int `json:"vcs"`
	BufDepth     int `json:"buf_depth"`
	PacketLength int `json:"packet_length"`

	Mode             router.DeadlockMode `json:"mode"`
	DeadlockTimeout  int64               `json:"deadlock_timeout,omitempty"`
	TokenWaitTimeout int64               `json:"token_wait_timeout,omitempty"`

	SidebandHopDelay  int                `json:"sideband_hop_delay"`
	SidebandBits      int                `json:"sideband_bits,omitempty"`
	SidebandMechanism sideband.Mechanism `json:"sideband_mechanism"`
	PiggybackP        float64            `json:"piggyback_p,omitempty"`

	DeliveryChannels int                    `json:"delivery_channels,omitempty"`
	Selection        router.SelectionPolicy `json:"selection"`
	Switching        router.Switching       `json:"switching"`

	Schedule *traffic.ScheduleSpec `json:"schedule,omitempty"`
	Pattern  traffic.PatternKind   `json:"pattern,omitempty"`
	Rate     float64               `json:"rate,omitempty"`

	Scheme schemeJSON `json:"scheme"`

	// shard_workers and shard_dispatch are accepted and ignored: they
	// still parse and validate, so older specs keep working, but they
	// never change a run and Fingerprint excludes them, so they must not
	// split the result cache.
	ShardWorkers  int                   `json:"shard_workers,omitempty"`
	ShardDispatch router.DispatchPolicy `json:"shard_dispatch,omitempty"`

	WarmupCycles   int64 `json:"warmup_cycles"`
	MeasureCycles  int64 `json:"measure_cycles"`
	SampleInterval int64 `json:"sample_interval,omitempty"`

	Seed int64 `json:"seed"`
}

// schemeJSON is the wire form of Scheme. The controller-zoo fields
// (window bounds, mark threshold, staleness) are omitempty like every
// other optional knob, so configs predating them keep their canonical
// encoding — and therefore their fingerprints — unchanged.
type schemeJSON struct {
	Kind            SchemeKind    `json:"kind"`
	StaticThreshold float64       `json:"static_threshold,omitempty"`
	BusyLimit       int           `json:"busy_limit,omitempty"`
	Estimator       EstimatorKind `json:"estimator,omitempty"`
	TuningPeriod    int64         `json:"tuning_period,omitempty"`
	Tuner           *tunerJSON    `json:"tuner,omitempty"`
	KeepTrace       bool          `json:"keep_trace,omitempty"`
	WindowMin       int           `json:"window_min,omitempty"`
	WindowMax       int           `json:"window_max,omitempty"`
	MarkThreshold   float64       `json:"mark_threshold,omitempty"`
	Staleness       int64         `json:"staleness,omitempty"`
}

// tunerJSON is the wire form of core.TunerConfig.
type tunerJSON struct {
	TotalBuffers      int     `json:"total_buffers"`
	InitialFraction   float64 `json:"initial_fraction"`
	IncrementFraction float64 `json:"increment_fraction"`
	DecrementFraction float64 `json:"decrement_fraction"`
	DropFraction      float64 `json:"drop_fraction"`
	RecoverFraction   float64 `json:"recover_fraction"`
	ResetPeriods      int     `json:"reset_periods"`
	AvoidLocalMaxima  bool    `json:"avoid_local_maxima"`
}

// Serializable reports whether the Config has a wire form. Two values
// are in-process only — a live *traffic.Schedule and a Scheme.Custom
// throttler (the custom scheme kind exists only to carry one) — and a
// Config holding either cannot be marshalled, fingerprinted, cached,
// or placed in an experiment Spec.
func (c Config) Serializable() error {
	if c.Schedule != nil {
		return fmt.Errorf("sim: a live *traffic.Schedule is not serializable; use Config.ScheduleSpec")
	}
	if c.Scheme.Custom != nil {
		return fmt.Errorf("sim: a custom throttler is not serializable")
	}
	if c.Scheme.Kind == Custom {
		return fmt.Errorf("sim: scheme %q is not serializable", Custom)
	}
	return nil
}

// MarshalJSON implements json.Marshaler with the versioned wire form.
// Configs carrying in-process-only values (a live Schedule or a custom
// throttler) have no serializable representation and return an error.
func (c Config) MarshalJSON() ([]byte, error) {
	if err := c.Serializable(); err != nil {
		return nil, err
	}
	w := configJSON{
		Version:           ConfigVersion,
		K:                 c.K,
		N:                 c.N,
		VCs:               c.VCs,
		BufDepth:          c.BufDepth,
		PacketLength:      c.PacketLength,
		Mode:              c.Mode,
		DeadlockTimeout:   c.DeadlockTimeout,
		TokenWaitTimeout:  c.TokenWaitTimeout,
		SidebandHopDelay:  c.SidebandHopDelay,
		SidebandBits:      c.SidebandBits,
		SidebandMechanism: c.SidebandMechanism,
		PiggybackP:        c.PiggybackP,
		DeliveryChannels:  c.DeliveryChannels,
		Selection:         c.Selection,
		Switching:         c.Switching,
		Schedule:          c.ScheduleSpec,
		Pattern:           c.Pattern,
		Rate:              c.Rate,
		Scheme: schemeJSON{
			Kind:            c.Scheme.Kind,
			StaticThreshold: c.Scheme.StaticThreshold,
			BusyLimit:       c.Scheme.BusyLimit,
			Estimator:       c.Scheme.Estimator,
			TuningPeriod:    c.Scheme.TuningPeriod,
			KeepTrace:       c.Scheme.KeepTrace,
			WindowMin:       c.Scheme.WindowMin,
			WindowMax:       c.Scheme.WindowMax,
			MarkThreshold:   c.Scheme.MarkThreshold,
			Staleness:       c.Scheme.Staleness,
		},
		ShardWorkers:   c.ShardWorkers,
		ShardDispatch:  c.ShardDispatch,
		WarmupCycles:   c.WarmupCycles,
		MeasureCycles:  c.MeasureCycles,
		SampleInterval: c.SampleInterval,
		Seed:           c.Seed,
	}
	if tc := c.Scheme.Tuner; tc != nil {
		w.Scheme.Tuner = &tunerJSON{
			TotalBuffers:      tc.TotalBuffers,
			InitialFraction:   tc.InitialFraction,
			IncrementFraction: tc.IncrementFraction,
			DecrementFraction: tc.DecrementFraction,
			DropFraction:      tc.DropFraction,
			RecoverFraction:   tc.RecoverFraction,
			ResetPeriods:      tc.ResetPeriods,
			AvoidLocalMaxima:  tc.AvoidLocalMaxima,
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. Parsing is strict: unknown
// fields, unknown enum names, and unsupported versions are errors, so a
// typo in a spec file cannot silently become a default. The set of
// serializable scheme kinds is the congestion registry — a scheme is on
// the wire exactly when a factory self-registered under its name
// (Custom never registers, so it is rejected here by construction).
func (c *Config) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w configJSON
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("sim: parsing config: %w", err)
	}
	if w.Version != ConfigVersion {
		return fmt.Errorf("sim: unsupported config version %d (this build reads version %d)",
			w.Version, ConfigVersion)
	}
	if !congestion.Registered(string(w.Scheme.Kind)) {
		return fmt.Errorf("sim: unknown scheme kind %q", w.Scheme.Kind)
	}
	switch w.Scheme.Estimator {
	case "", LinearEstimator, LastValueEstimator:
	default:
		return fmt.Errorf("sim: unknown estimator %q", w.Scheme.Estimator)
	}
	out := Config{
		K:                 w.K,
		N:                 w.N,
		VCs:               w.VCs,
		BufDepth:          w.BufDepth,
		PacketLength:      w.PacketLength,
		Mode:              w.Mode,
		DeadlockTimeout:   w.DeadlockTimeout,
		TokenWaitTimeout:  w.TokenWaitTimeout,
		SidebandHopDelay:  w.SidebandHopDelay,
		SidebandBits:      w.SidebandBits,
		SidebandMechanism: w.SidebandMechanism,
		PiggybackP:        w.PiggybackP,
		DeliveryChannels:  w.DeliveryChannels,
		Selection:         w.Selection,
		Switching:         w.Switching,
		ScheduleSpec:      w.Schedule,
		Pattern:           w.Pattern,
		Rate:              w.Rate,
		Scheme: Scheme{
			Kind:            w.Scheme.Kind,
			StaticThreshold: w.Scheme.StaticThreshold,
			BusyLimit:       w.Scheme.BusyLimit,
			Estimator:       w.Scheme.Estimator,
			TuningPeriod:    w.Scheme.TuningPeriod,
			KeepTrace:       w.Scheme.KeepTrace,
			WindowMin:       w.Scheme.WindowMin,
			WindowMax:       w.Scheme.WindowMax,
			MarkThreshold:   w.Scheme.MarkThreshold,
			Staleness:       w.Scheme.Staleness,
		},
		ShardWorkers:   w.ShardWorkers,
		ShardDispatch:  w.ShardDispatch,
		WarmupCycles:   w.WarmupCycles,
		MeasureCycles:  w.MeasureCycles,
		SampleInterval: w.SampleInterval,
		Seed:           w.Seed,
	}
	if tc := w.Scheme.Tuner; tc != nil {
		out.Scheme.Tuner = &core.TunerConfig{
			TotalBuffers:      tc.TotalBuffers,
			InitialFraction:   tc.InitialFraction,
			IncrementFraction: tc.IncrementFraction,
			DecrementFraction: tc.DecrementFraction,
			DropFraction:      tc.DropFraction,
			RecoverFraction:   tc.RecoverFraction,
			ResetPeriods:      tc.ResetPeriods,
			AvoidLocalMaxima:  tc.AvoidLocalMaxima,
		}
	}
	*c = out
	return nil
}

// Fingerprint returns the content address of the configuration: the
// hex SHA-256 of its canonical JSON encoding (fixed field order, zero
// values elided by omitempty, enums as names). Two Configs share a
// fingerprint exactly when their wire forms are identical, and the
// round trip Config -> JSON -> Config preserves it, so the fingerprint
// keys the result cache and the spec-integrity checks. Configs with no
// wire form (live Schedule, custom throttler) have no fingerprint.
//
// ShardWorkers and ShardDispatch are zeroed before hashing: they are
// accepted and ignored, so runs differing only there are the same
// experiment and must share cache entries.
func (c Config) Fingerprint() (string, error) {
	c.ShardWorkers = 0
	c.ShardDispatch = 0
	data, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
