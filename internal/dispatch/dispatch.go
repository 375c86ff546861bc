// Package dispatch is the coordinator half of the distributed sweep
// fabric: it farms individual grid points to peer stcc-serve daemons
// over the same POST /v1/jobs wire schema every other client uses, and
// hands the merged results back to the experiments.Runner in
// deterministic point order.
//
// The coordinator is deliberately dumb about scheduling — round-robin
// over the configured peers, bounded retry with doubling backoff — and
// strict about trust: every peer response is verified against the
// content address of the work that was sent (the one-point spec's
// SHA-256 fingerprint, echoed back in the job status). A mismatched
// fingerprint means the peer executed something other than what was
// asked; the result is rejected, never cached, and the point re-runs
// locally. Because the engine is deterministic, a verified remote
// result is bit-identical to a local run, which is what the
// determinism-through-dispatch golden pins.
//
// Failure policy: a peer that sheds load (429), refuses connections, or
// returns garbage only costs the retry budget — ExecPoint's error makes
// the runner simulate the point locally, so attaching a coordinator can
// never make a sweep fail that would have succeeded on one machine.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache/remotestore"
	"repro/internal/sim"
)

// Defaults for Config's zero fields.
const (
	defaultAttempts = 3
	defaultBackoff  = 100 * time.Millisecond
	defaultPoll     = 10 * time.Millisecond
	defaultTimeout  = 30 * time.Second
)

var (
	// ErrNoPeers rejects a coordinator with an empty peer set.
	ErrNoPeers = errors.New("dispatch: no peers configured")
	// ErrFingerprintMismatch marks a peer result that does not match the
	// content address of the submitted work. It is terminal for the
	// attempt — no retry can make an untrusted result trustworthy — so
	// the point re-runs locally and the peer's bytes are discarded.
	ErrFingerprintMismatch = errors.New("dispatch: peer result fingerprint mismatch")
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers are the daemons to farm points to, as host:port or http://
	// URLs (the -peers flag's comma-separated form, split by the caller).
	Peers []string
	// Client overrides the HTTP client; nil uses a 30s-timeout default.
	Client *http.Client
	// Attempts bounds how many peer submissions one point may consume
	// before ExecPoint gives up and the runner falls back to local
	// execution. Zero means 3.
	Attempts int
	// Backoff is the initial delay after a failed attempt; it doubles
	// per retry. Zero means 100ms.
	Backoff time.Duration
	// Poll is the job-status polling interval. Zero means 10ms.
	Poll time.Duration
}

// Stats is a snapshot of the coordinator's counters, exported on the
// daemon's metrics endpoints.
type Stats struct {
	// Dispatched counts ExecPoint calls (points offered to the fabric).
	Dispatched int64 `json:"dispatched"`
	// Remote counts points whose verified result came from a peer.
	Remote int64 `json:"remote"`
	// Sheds counts 429 responses (peer queue full).
	Sheds int64 `json:"sheds"`
	// Errors counts failed attempts other than sheds: connection
	// refused, HTTP errors, failed jobs, malformed bodies.
	Errors int64 `json:"errors"`
	// Mismatches counts rejected fingerprint-mismatched results.
	Mismatches int64 `json:"mismatches"`
	// Fallbacks counts points returned to the runner for local
	// execution after the retry budget (or a mismatch) exhausted.
	Fallbacks int64 `json:"fallbacks"`
}

// Coordinator farms grid points to peer daemons. It implements
// experiments.RemoteExecutor and is safe for concurrent use — grid
// points dispatch from runner worker goroutines.
type Coordinator struct {
	peers    []string
	client   *http.Client
	attempts int
	backoff  time.Duration
	poll     time.Duration

	next atomic.Int64 // round-robin cursor

	dispatched atomic.Int64
	remote     atomic.Int64
	sheds      atomic.Int64
	errs       atomic.Int64
	mismatches atomic.Int64
	fallbacks  atomic.Int64
}

var _ experiments.RemoteExecutor = (*Coordinator)(nil)

// New builds a coordinator over the given peers. Peer addresses accept
// the same forms as the CLI's -addr flags: "host:port" or a full
// http:// URL.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, ErrNoPeers
	}
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		base, err := remotestore.BaseURL(p)
		if err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		peers = append(peers, base)
	}
	c := &Coordinator{
		peers:    peers,
		client:   cfg.Client,
		attempts: cfg.Attempts,
		backoff:  cfg.Backoff,
		poll:     cfg.Poll,
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: defaultTimeout}
	}
	if c.attempts <= 0 {
		c.attempts = defaultAttempts
	}
	if c.backoff <= 0 {
		c.backoff = defaultBackoff
	}
	if c.poll <= 0 {
		c.poll = defaultPoll
	}
	return c, nil
}

// ParsePeers splits a -peers flag value ("host:port,host:port") into
// the peer list New accepts, dropping empty elements.
func ParsePeers(flag string) []string {
	var peers []string
	for _, p := range strings.Split(flag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// Peers returns the normalized peer base URLs, in configuration order.
func (c *Coordinator) Peers() []string {
	out := make([]string, len(c.peers))
	copy(out, c.peers)
	return out
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Dispatched: c.dispatched.Load(),
		Remote:     c.remote.Load(),
		Sheds:      c.sheds.Load(),
		Errors:     c.errs.Load(),
		Mismatches: c.mismatches.Load(),
		Fallbacks:  c.fallbacks.Load(),
	}
}

// Wire shapes of the stcc-serve API this package speaks. They are
// declared here, not imported from internal/server, so the dependency
// points the right way: the server embeds a coordinator, never the
// reverse. The field sets are the subset the coordinator reads; both
// sides are pinned by tests that drive a real server.New.
type (
	submitResp struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	jobStatus struct {
		ID          string          `json:"id"`
		State       string          `json:"state"`
		Fingerprint string          `json:"fingerprint"`
		Error       string          `json:"error"`
		Result      json.RawMessage `json:"result"`
	}
	jobResult struct {
		Groups [][]sim.Result `json:"groups"`
	}
)

// Terminal job states, mirroring internal/server.
const (
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// errShed marks a 429 (peer queue full) so the retry loop can count
// sheds separately from hard errors.
var errShed = errors.New("dispatch: peer shedding load")

// ExecPoint farms one configuration to the fabric: wrap it in a
// one-point spec, submit to the next peer round-robin, poll the job to
// completion, verify the echoed fingerprint, and return the result.
// Every failure path returns an error — the runner's contract is that
// ExecPoint errors mean "simulate locally", so this method never
// panics, never blocks past ctx, and never returns an unverified
// result.
func (c *Coordinator) ExecPoint(ctx context.Context, cfg sim.Config, fingerprint string) (sim.Result, error) {
	c.dispatched.Add(1)

	// The one-point spec is deterministic for a given config (label is
	// the config's content address), so identical points dispatched by
	// different coordinators collapse in the peer's result cache and
	// singleflight layer.
	spec := experiments.NewSpec("dispatch", "")
	spec.AddGroup("", experiments.Point{Label: fingerprint, Config: cfg})
	body, err := json.Marshal(spec)
	if err != nil {
		c.fallbacks.Add(1)
		return sim.Result{}, fmt.Errorf("dispatch: marshaling point spec: %w", err)
	}
	want, err := spec.Fingerprint()
	if err != nil {
		c.fallbacks.Add(1)
		return sim.Result{}, fmt.Errorf("dispatch: fingerprinting point spec: %w", err)
	}

	backoff := c.backoff
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, backoff); err != nil {
				c.fallbacks.Add(1)
				return sim.Result{}, err
			}
			backoff *= 2
		}
		peer := c.peers[int(c.next.Add(1)-1)%len(c.peers)]
		res, err := c.tryPeer(ctx, peer, body, want)
		if err == nil {
			c.remote.Add(1)
			return res, nil
		}
		switch {
		case errors.Is(err, errShed):
			c.sheds.Add(1)
		case errors.Is(err, ErrFingerprintMismatch):
			// Terminal: retrying cannot restore trust in the fabric for
			// this point, and the local fallback is always correct.
			c.mismatches.Add(1)
			c.fallbacks.Add(1)
			return sim.Result{}, fmt.Errorf("%w (peer %s)", ErrFingerprintMismatch, peer)
		case ctx.Err() != nil:
			c.fallbacks.Add(1)
			return sim.Result{}, ctx.Err()
		default:
			c.errs.Add(1)
		}
		lastErr = fmt.Errorf("dispatch: peer %s: %w", peer, err)
	}
	c.fallbacks.Add(1)
	return sim.Result{}, fmt.Errorf("dispatch: %d attempts exhausted, falling back to local: %w",
		c.attempts, lastErr)
}

// tryPeer runs one submit-poll-verify cycle against a single peer.
func (c *Coordinator) tryPeer(ctx context.Context, peer string, body []byte, want string) (sim.Result, error) {
	id, err := c.submit(ctx, peer, body)
	if err != nil {
		return sim.Result{}, err
	}
	st, err := c.await(ctx, peer, id)
	if err != nil {
		return sim.Result{}, err
	}
	switch st.State {
	case stateDone:
	case stateFailed:
		return sim.Result{}, fmt.Errorf("job %s failed: %s", id, st.Error)
	default: // canceled, or an unknown future state
		return sim.Result{}, fmt.Errorf("job %s ended in state %q", id, st.State)
	}
	if st.Fingerprint != want {
		return sim.Result{}, fmt.Errorf("%w: sent %s, peer echoed %q", ErrFingerprintMismatch, want, st.Fingerprint)
	}
	var jr jobResult
	if err := json.Unmarshal(st.Result, &jr); err != nil {
		return sim.Result{}, fmt.Errorf("job %s: decoding result: %w", id, err)
	}
	if len(jr.Groups) != 1 || len(jr.Groups[0]) != 1 {
		return sim.Result{}, fmt.Errorf("job %s: result is not a single point", id)
	}
	return jr.Groups[0][0], nil
}

// submit POSTs the one-point spec and returns the accepted job id.
func (c *Coordinator) submit(ctx context.Context, peer string, body []byte) (string, error) {
	var sr submitResp
	status, err := remotestore.Call(ctx, c.client, http.MethodPost, peer+"/v1/jobs", body, &sr,
		http.StatusAccepted, http.StatusTooManyRequests)
	switch {
	case err != nil:
		return "", fmt.Errorf("submit: %w", err)
	case status == http.StatusTooManyRequests:
		return "", errShed
	case sr.ID == "":
		return "", fmt.Errorf("submit: response carries no job id")
	}
	return sr.ID, nil
}

// await polls the job until it reaches a terminal state. If ctx dies
// mid-poll the job is canceled on the peer best-effort, so an abandoned
// sweep does not leave orphan work running remotely.
func (c *Coordinator) await(ctx context.Context, peer, id string) (jobStatus, error) {
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		st, err := c.status(ctx, peer, id)
		if err != nil {
			if ctx.Err() != nil {
				c.cancelJob(peer, id)
			}
			return jobStatus{}, err
		}
		switch st.State {
		case stateDone, stateFailed, stateCanceled:
			return st, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			c.cancelJob(peer, id)
			return jobStatus{}, ctx.Err()
		}
	}
}

// status fetches one job snapshot.
func (c *Coordinator) status(ctx context.Context, peer, id string) (jobStatus, error) {
	var st jobStatus
	if _, err := remotestore.Call(ctx, c.client, http.MethodGet, peer+"/v1/jobs/"+id, nil, &st,
		http.StatusOK); err != nil {
		return jobStatus{}, fmt.Errorf("status %s: %w", id, err)
	}
	return st, nil
}

// cancelJob best-effort cancels an abandoned job. The coordinator's
// context is already dead here, so a short independent deadline bounds
// the cleanup call; its outcome is ignored.
func (c *Coordinator) cancelJob(peer, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _ = remotestore.Call(ctx, c.client, http.MethodDelete, peer+"/v1/jobs/"+id, nil, nil)
}

// sleep blocks for d or until ctx dies.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
