// Package remotestore is the peer backend of the result store: an HTTP
// client that reads and writes fingerprint-addressed entries on another
// stcc-serve daemon's /v1/cache endpoints. It is how a sweep worker
// without local disk shares a cluster's cache, and how a coordinator
// warms its own cache from a peer that already ran part of a grid.
//
// The wire protocol is deliberately tiny and content-addressed:
//
//	GET    /v1/cache/{fingerprint}  -> 200 + result JSON, or 404 (miss)
//	PUT    /v1/cache/{fingerprint}  -> 204 (stored)
//	GET    /v1/cache                -> 200 + {"entries": n}
//
// A 404 is a clean miss — including when the peer's own backend
// quarantined a corrupt entry, so the quarantine contract holds
// transitively: a corrupt entry anywhere in the chain reads as a miss,
// never as a parse error. Transport failures (peer down, timeout, 5xx)
// are errors, not misses, so a dead peer surfaces instead of silently
// re-running a whole grid.
package remotestore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// MaxBodyBytes bounds any response body read from a peer daemon. Result
// JSON with full time series runs tens of KB; anything past this is a
// protocol error, not a result.
const MaxBodyBytes = 64 << 20

// Store reads and writes result entries on one peer daemon. Construct
// with New. Safe for concurrent use (http.Client is).
type Store struct {
	base   string
	client *http.Client
}

// Compile-time check: *Store satisfies the pluggable contract.
var _ resultcache.Store = (*Store)(nil)

// New returns a store backed by the peer at addr ("host:port" or a full
// http:// URL). A nil client selects a default with a 30-second
// per-request timeout — entries are single small documents, so a slow
// peer should fail fast rather than stall a sweep.
func New(addr string, client *http.Client) (*Store, error) {
	base, err := BaseURL(addr)
	if err != nil {
		return nil, fmt.Errorf("remotestore: %w", err)
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Store{base: base, client: client}, nil
}

// BaseURL normalizes a peer daemon address to a base URL: a bare
// "host:port" gains the http scheme, trailing slashes are dropped, and
// an empty address or a scheme other than http(s) is rejected. It is
// the one normalizer for every peer address, result store and dispatch
// peer alike.
func BaseURL(addr string) (string, error) {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return "", fmt.Errorf("empty peer address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return "", fmt.Errorf("peer %q: only http(s) peers are supported", addr)
	}
	return strings.TrimRight(addr, "/"), nil
}

// Call performs one JSON request against a peer daemon. A non-nil body
// is sent as application/json. The response status must be one of
// accept, or Call returns an error naming the request; the status is
// returned whenever a response arrived, so callers can branch on an
// accepted non-2xx status such as a 404 miss or a 429 shed. A 2xx body
// is decoded into out (when non-nil), reading at most MaxBodyBytes. The
// body is always drained and closed so the connection returns to the
// client's pool.
func Call(ctx context.Context, client *http.Client, method, url string, body []byte, out any, accept ...int) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		resp.Body.Close()
	}()
	if !slices.Contains(accept, resp.StatusCode) {
		return resp.StatusCode, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	if out == nil || resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// Peer returns the normalized base URL this store talks to.
func (s *Store) Peer() string { return s.base }

// Get fetches the entry from the peer. 404 is a clean miss; any other
// non-200 status, and a body that does not parse, is an error (the
// peer's own backend quarantines corrupt storage before it ever reaches
// the wire, so a malformed body here means transport or peer bugs).
func (s *Store) Get(fingerprint string) (sim.Result, bool, error) {
	if err := resultcache.CheckFingerprint(fingerprint); err != nil {
		return sim.Result{}, false, err
	}
	var r sim.Result
	status, err := Call(context.Background(), s.client, http.MethodGet, s.base+"/v1/cache/"+fingerprint,
		nil, &r, http.StatusOK, http.StatusNotFound)
	if err != nil {
		return sim.Result{}, false, fmt.Errorf("remotestore: %w", err)
	}
	return r, status == http.StatusOK, nil
}

// Put stores the result on the peer.
func (s *Store) Put(fingerprint string, r sim.Result) error {
	if err := resultcache.CheckFingerprint(fingerprint); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("remotestore: %w", err)
	}
	if _, err := Call(context.Background(), s.client, http.MethodPut, s.base+"/v1/cache/"+fingerprint,
		data, nil, http.StatusNoContent, http.StatusOK); err != nil {
		return fmt.Errorf("remotestore: %w", err)
	}
	return nil
}

// Len asks the peer for its entry count.
func (s *Store) Len() (int, error) {
	var stats struct {
		Entries int `json:"entries"`
	}
	if _, err := Call(context.Background(), s.client, http.MethodGet, s.base+"/v1/cache",
		nil, &stats, http.StatusOK); err != nil {
		return 0, fmt.Errorf("remotestore: %w", err)
	}
	return stats.Entries, nil
}
