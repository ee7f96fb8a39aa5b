package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Job is the scheduler job
// id the call served (0 for calls outside any job, such as probes); the
// job's own span, named "job", is the parent of every other span with
// the same Job.
type span struct {
	Name       string
	Job        uint64
	Start, End time.Time
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// recorder holds spans in memory until the run ends; writing them out
// during the run would put file I/O on the measured path.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name string, job uint64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Job: job, Start: start, End: end})
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceEvent is one Chrome trace-event ("X" = complete event), the
// format Perfetto and chrome://tracing open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes spans as a trace-event file, one track per job,
// timestamps in microseconds from base.
func writeTrace(path string, base time.Time, spans []span) error {
	evs := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		ev := traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Job,
			TS:  float64(s.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		}
		if s.Name != "job" && s.Job != 0 {
			ev.Args = map[string]any{"parent": "job", "job": s.Job}
		}
		evs = append(evs, ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveTrace writes a run's spans to the work directory, timestamps from
// the earliest span, and names the file on standard output.
func saveTrace(cfg runConfig, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(base) {
			base = s.Start
		}
	}
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeTrace(path, base, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(spans))
	return nil
}
