package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/navp"
)

// paper-phase1d parameters: the paper's Figure 9 stage on 2 PEs.
const (
	phaseN  = 1536
	phaseBS = 256
	phaseP  = 2
	// phaseTol bounds |Phase1D − Sequential| per element. Both run the
	// same kernel on the same blocks; only the order of the k-sums may
	// differ, which moves results by a few ulps of values of order 10.
	phaseTol       = 1e-9
	phaseSetupReps = 3
)

// phasePass is one measured run of back-to-back verified solves.
type phasePass struct {
	solves  []float64 // seconds per solve, input generation included
	late    []float64 // ms from a solve being due to its start
	wrong   int
	elapsed time.Duration
}

// runPhasePass solves Phase1D back to back for d (at least once), checking every
// product against ref. A solve is due when the previous one has been
// checked. reg, when non-nil, receives the navp counters; rec the
// solve spans.
func runPhasePass(d time.Duration, seed int64, ref *matrix.Dense, reg *metrics.Registry, rec *recorder) (*phasePass, error) {
	cfg := matmul.Config{N: phaseN, BS: phaseBS, P: phaseP, Real: true, Seed: seed, Metrics: reg}
	p := &phasePass{}
	start := time.Now()
	end := start.Add(d)
	due := start
	for job := uint64(1); job == 1 || time.Now().Before(end); job++ {
		t := time.Now()
		p.late = append(p.late, ms(t.Sub(due)))
		r, err := matmul.Run(matmul.Phase1D, cfg)
		e := time.Now()
		if err != nil {
			return nil, fmt.Errorf("phase1d solve: %w", err)
		}
		p.solves = append(p.solves, e.Sub(t).Seconds())
		if rec != nil {
			rec.add("job", job, t, e)
			rec.add("matmul.run", job, t, e)
		}
		if diff := r.C.MaxAbsDiff(ref); !(diff <= phaseTol) {
			p.wrong++
		}
		due = time.Now()
	}
	p.elapsed = time.Since(start)
	return p, nil
}

func (p *phasePass) capacity() float64 { return float64(len(p.solves)) / p.elapsed.Seconds() }

func (p *phasePass) sloFrac() float64 {
	ok := 0
	for _, s := range p.solves {
		if s <= sloLimit.Seconds() {
			ok++
		}
	}
	return float64(ok) / float64(len(p.solves))
}

func (p *phasePass) ms() []float64 {
	out := make([]float64, len(p.solves))
	for i, s := range p.solves {
		out[i] = s * 1000
	}
	return out
}

func runPhase(cfg runConfig) (*result, error) {
	var setups, seqs []float64
	var ref *matrix.Dense
	for rep := 0; rep < phaseSetupReps; rep++ {
		t := time.Now()
		s, c, err := sequentialSeconds(cfg.seed)
		if err != nil {
			return nil, err
		}
		ref = c
		seqs = append(seqs, s)
		// Kernel and allocator warm-up: one verified solve.
		w, err := runPhasePass(0, cfg.seed, ref, nil, nil)
		if err != nil {
			return nil, err
		}
		if w.wrong > 0 {
			return nil, fmt.Errorf("set-up solve differs from the Sequential reference by more than %g", phaseTol)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	d := time.Duration(cfg.seconds) * time.Second
	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain, err := runPhasePass(d, cfg.seed, ref, nil, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(plain.solves), plain.wrong
	res.Correct = plain.wrong == 0
	lat := plain.ms()
	if cfg.trace == 0 {
		res.put("setup_s", median(setups), "s")
		res.put("job_p50_ms", percentile(lat, 50), "ms")
		res.put("capacity_jobs_s", plain.capacity(), "1/s")
		return res, nil
	}

	rec := &recorder{}
	reg := metrics.NewRegistry()
	traced, err := runPhasePass(d, cfg.seed, ref, reg, rec)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(traced.solves)
	res.Failed += traced.wrong
	res.Correct = res.Correct && traced.wrong == 0
	rate, err := putProbes(res, false)
	if err != nil {
		return nil, err
	}
	solve := median(traced.solves)
	snap := reg.Snapshot()
	n := float64(len(traced.solves))
	// The flops a solve must do, at the single-thread block rate on each
	// of the P PEs: what remains of the solve is hops, waits, input
	// generation and scheduling (computed, not measured).
	compute := 2 * math.Pow(phaseN, 3) / (phaseP * rate)
	tlat := traced.ms()
	res.put("navp.hops", float64(snap.Counter(navp.MetricHops))/n, "count")
	res.put("navp.injects", float64(snap.Counter(navp.MetricInjects))/n, "count")
	res.put("navp.waits", float64(snap.Counter(navp.MetricWaits))/n, "count")
	res.put("navp.non_compute_s", solve-compute, "s")
	res.put("matrix.seq_s", median(seqs), "s")
	res.put("gen.late_ms", percentile(traced.late, 90), "ms")
	res.put("tail.job_p90_ms", percentile(lat, 90), "ms")
	res.put("tail.slo_500ms_ok_frac", plain.sloFrac(), "frac")
	res.put("trace.job_p50_ms", percentile(tlat, 50), "ms")
	res.put("trace.overhead_ms", percentile(tlat, 50)-percentile(lat, 50), "ms")
	res.put("trace.accounted_frac", compute/solve, "frac")
	// The paper stage runs in-process: it never enters the scheduler or
	// the wire runtime's control path, so those layers did no work here.
	res.bypass("sched.", "wire.")
	return res, saveTrace(cfg, rec.snapshot())
}
