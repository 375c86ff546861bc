package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced pass: a call into one layer,
// seen from the benchmark. Times are nanoseconds since the recorder's
// epoch; Parent is the ID of the span that caused it, -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced pass's spans in memory: every span folds into
// its name's fixed-bucket histogram, and raw spans are kept only for
// the units (cycles, points or jobs) the caller marks, so a trace's
// size does not grow with run length.
type recorder struct {
	epoch time.Time
	names []string
	hists []histogram
	raw   []span
}

// newRecorder returns a recorder for the given span names; observe and
// keep address them by index.
func newRecorder(names ...string) *recorder {
	return &recorder{epoch: time.Now(), names: names, hists: make([]histogram, len(names))}
}

// now returns nanoseconds since the epoch on the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// observe folds one span of name index i into its histogram.
func (r *recorder) observe(i int, start, end int64) { r.hists[i].add(end - start) }

// keep stores a raw span and returns its ID. End may be filled in later
// through setEnd, so a parent can be stored before its children.
func (r *recorder) keep(i int, parent int32, start, end int64) int32 {
	id := int32(len(r.raw))
	r.raw = append(r.raw, span{ID: id, Parent: parent, Name: r.names[i], Start: start, End: end})
	return id
}

func (r *recorder) setEnd(id int32, end int64) { r.raw[id].End = end }

// sum returns the total nanoseconds observed under name index i.
func (r *recorder) sum(i int) int64 { return r.hists[i].SumNs }

// traceFile is the JSON document a traced pass writes when it ends.
type traceFile struct {
	Workload   string               `json:"workload"`
	Host       host                 `json:"host"`
	Histograms map[string]histogram `json:"histograms"`
	Spans      []span               `json:"spans"`
}

// write stores the recorder's histograms and raw spans under dir.
func (r *recorder) write(dir, workload string, h host) (string, error) {
	tf := traceFile{Workload: workload, Host: h, Histograms: make(map[string]histogram), Spans: r.raw}
	for i, name := range r.names {
		tf.Histograms[name] = r.hists[i]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, h.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
