package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/congestion"
)

// ConfigVersion is the spec format version this build reads and writes.
// The version is the first thing Unmarshal checks, so a config written
// by a future incompatible format fails loudly instead of half-parsing.
const ConfigVersion = 1

// plainConfig is Config without its methods, so wireConfig encodes
// Config's tagged fields instead of recursing into MarshalJSON.
type plainConfig Config

// wireConfig is the versioned wire form: the version, then Config's
// fields under their json tags in declaration order. Enums encode as
// their names (strictly: unknown names are rejected, never defaulted).
type wireConfig struct {
	Version int `json:"version"`
	plainConfig
}

// Serializable reports whether the Config has a wire form. Two values
// are in-process only — a live *traffic.Schedule and a Scheme.Custom
// factory (the custom scheme kind exists only to carry one) — and a
// Config holding either cannot be marshalled, fingerprinted, cached,
// or placed in an experiment Spec.
func (c Config) Serializable() error {
	if c.Schedule != nil {
		return fmt.Errorf("sim: a live *traffic.Schedule is not serializable; use Config.ScheduleSpec")
	}
	if c.Scheme.Custom != nil {
		return fmt.Errorf("sim: a custom controller factory is not serializable")
	}
	if c.Scheme.Kind == Custom {
		return fmt.Errorf("sim: scheme %q is not serializable", Custom)
	}
	return nil
}

// MarshalJSON implements json.Marshaler with the versioned wire form.
// Configs carrying in-process-only values (a live Schedule or a custom
// controller factory) have no serializable representation and return an error.
func (c Config) MarshalJSON() ([]byte, error) {
	if err := c.Serializable(); err != nil {
		return nil, err
	}
	return json.Marshal(wireConfig{ConfigVersion, plainConfig(c)})
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
	var w wireConfig
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("sim: parsing config: %w", err)
	}
	if w.Version != ConfigVersion {
		return fmt.Errorf("sim: unsupported config version %d (this build reads version %d)",
			w.Version, ConfigVersion)
	}
	if _, ok := congestion.Lookup(string(w.Scheme.Kind)); !ok {
		return fmt.Errorf("sim: unknown scheme kind %q", w.Scheme.Kind)
	}
	*c = Config(w.plainConfig)
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
