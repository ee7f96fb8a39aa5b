package bench

// The BENCH_sched.json schema: open-loop serving measurements against
// clusters of real daemon processes, rendered machine-readable so CI
// and later sessions can diff serving throughput, latency percentiles,
// and SLO verdicts the same way they diff the kernel and codec numbers.
//
// Schema 2 replaced the closed-loop single-cluster numbers of schema 1:
// each scenario is now a horizontal-scaling curve — the same Poisson
// offered load measured against 1, 2, 4, ... separate daemon OS
// processes — with SLO fields per point.
//
// This file stays simsafe: the wall-clock measurement happens inside
// sched.RunOpenLoop (real domain); here the numbers are only assembled
// into the file schema.

import (
	"runtime"

	"repro/internal/sched"
)

// ScalePoint is one cluster size on a scenario's scaling curve.
type ScalePoint struct {
	// Processes is how many daemon OS processes served this point.
	Processes int `json:"processes"`
	// Result carries the open-loop throughput, latency percentiles, and
	// SLO verdicts measured at this scale.
	Result sched.OpenLoopResult `json:"result"`
}

// ServeScenario is one open-loop workload swept across cluster sizes.
type ServeScenario struct {
	// Name identifies the scenario, e.g. "wirematmul-scaling".
	Name string `json:"name"`
	// Kind is the job kind submitted (SubmitRequest.Kind).
	Kind string `json:"kind"`
	// Chaos records whether a fault plan was active on the cluster.
	Chaos bool `json:"chaos"`
	// Fault is the chaos plan's spec string, empty without one.
	Fault string `json:"fault,omitempty"`
	// Rate is the offered Poisson arrival rate (jobs/second).
	Rate float64 `json:"rate"`
	// Points is the scaling curve, smallest cluster first.
	Points []ScalePoint `json:"points"`
}

// ServeFile is the schema of BENCH_sched.json.
type ServeFile struct {
	Schema     int             `json:"schema"`
	Suite      string          `json:"suite"`
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Quick      bool            `json:"quick"`
	Workers    int             `json:"workers"`
	QueueDepth int             `json:"queue_depth"`
	Scenarios  []ServeScenario `json:"scenarios"`
}

// NewServeFile starts an empty serving-measurement file recording the
// serving stack's shape and the host fingerprint.
func NewServeFile(workers, queueDepth int, quick bool) *ServeFile {
	return &ServeFile{
		Schema: 2, Suite: "sched",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Quick: quick,
		Workers: workers, QueueDepth: queueDepth,
	}
}

// AddScenario appends an empty scaling curve and returns it for
// point-by-point filling.
func (f *ServeFile) AddScenario(name, kind, faultSpec string, rate float64) *ServeScenario {
	f.Scenarios = append(f.Scenarios, ServeScenario{
		Name: name, Kind: kind, Chaos: faultSpec != "", Fault: faultSpec, Rate: rate,
	})
	return &f.Scenarios[len(f.Scenarios)-1]
}

// AddPoint appends one measured cluster size to the curve.
func (s *ServeScenario) AddPoint(processes int, r sched.OpenLoopResult) {
	s.Points = append(s.Points, ScalePoint{Processes: processes, Result: r})
}

// FindScenario returns the named scenario, or nil.
func (f *ServeFile) FindScenario(name string) *ServeScenario {
	for i := range f.Scenarios {
		if f.Scenarios[i].Name == name {
			return &f.Scenarios[i]
		}
	}
	return nil
}
