package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Serving workload parameters. Workers, queue depth and round-robin
// placement are navpserve's front-end defaults.
const (
	serveN       = 16
	serveWorkers = 8
	serveQueue   = 64
	// serveRate is the fixed offered rate: about a quarter of the
	// capacity measured on a 2-core host, so the fixed-rate phase shows
	// per-job costs rather than queueing.
	serveRate = 3.0
	// fixedShare of --seconds is offered at serveRate; the rest is the
	// saturation phase. At 30 s that is 68 arrivals, then 7.5 s.
	fixedShare = 0.75
	// saturationQueued is how many jobs wait in the admission queue,
	// beyond one per worker, throughout the saturation phase.
	saturationQueued = 4
	// capacitySkip is the start of the saturation phase left out of the
	// capacity window, while the backlog builds.
	capacitySkip = time.Second
	// sloLimit is the latency limit of the tail.slo_500ms_ok_frac metric.
	sloLimit = 500 * time.Millisecond
	// serveSetupReps is how many times set-up runs; setup_s is the median.
	serveSetupReps = 3
	warmupJobs     = 2 * serveWorkers
	// primeJobs brings the kept cluster to its steady state before
	// anything is measured. Each daemon persists its retired dedup
	// entries in every snapshot, up to a high-water mark of 1024; a job
	// retires 16 of them per daemon, so snapshots, and with them every
	// sync, grow over the first 64 jobs and then stay flat. A serving
	// cluster spends its life in that flat state.
	primeJobs = 64
	// residentVars × residentOrder² float64s is the parked tenant data
	// each daemon holds in serve-resident: 1 × 64×64 × 8 B = 32 KiB,
	// which more than doubles each snapshot. 512 KiB, the footprint of a
	// suspended tenant, caps the cluster below serveRate when the state
	// directory is on disk.
	residentVars  = 1
	residentOrder = 64
	// drainGrace bounds how long a pass waits for its last jobs.
	drainGrace = 20 * time.Second
	// idleProbes is the sample size of wire.waitjob_idle_ms.
	idleProbes = 40
)

func init() {
	// Parked tenant data crosses the control wire inside SetVar.
	wire.RegisterState(&matrix.Block{})
}

// timedWork runs a WireMatmul and records the span of each attempt's
// Run, the boundary between the scheduler's queue and the work.
// Embedding keeps WireMatmul's Kind and Resume, so the scheduler sees
// the same Work and Resumer as in the untraced pass.
type timedWork struct {
	sched.WireMatmul
	rec *recorder
}

func (w timedWork) Run(rt *sched.Runtime) (any, error) {
	t := time.Now()
	res, err := w.WireMatmul.Run(rt)
	w.rec.add("work.run", jobOfNS(rt.Job), t, time.Now())
	return res, err
}

// checkProduct checks the shape of a WireMatmul result; the values were
// already checked by WireMatmul against its own reference.
func checkProduct(res any) error {
	c, ok := res.([][]int64)
	if !ok || len(c) != serveN {
		return fmt.Errorf("wirematmul result is %T, want %d×%d [][]int64", res, serveN, serveN)
	}
	for i, row := range c {
		if len(row) != serveN {
			return fmt.Errorf("wirematmul result row %d has %d entries, want %d", i, len(row), serveN)
		}
	}
	return nil
}

func daemonCount() int { return max(2, runtime.NumCPU()) }

// setupServe brings up one warmed cluster: spawn, membership, parked
// data (resident only), and warmupJobs jobs run to completion.
func setupServe(dir string, resident bool, seed int64) (*cluster, error) {
	c, err := startCluster(dir, daemonCount())
	if err != nil {
		return nil, err
	}
	if resident {
		rng := rand.New(rand.NewSource(seed))
		for node := 0; node < c.rc.Size(); node++ {
			for k := 0; k < residentVars; k++ {
				blk := matrix.NewBlock(k, node, residentOrder, residentOrder)
				for i := range blk.Data {
					blk.Data[i] = rng.Float64()
				}
				if err := c.rc.SetVar(node, fmt.Sprintf("parked:%d", k), blk); err != nil {
					c.kill()
					return nil, fmt.Errorf("park data on node %d: %w", node, err)
				}
			}
		}
	}
	if err := runJobs(c.rc, warmupJobs, seed); err != nil {
		c.kill()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

// runJobs runs n jobs through a scheduler over backend, keeping the
// workers busy and the queue short, and fails unless every one finishes
// correctly.
func runJobs(backend sched.Backend, n int, seed int64) error {
	s, err := sched.New(sched.Config{Cluster: backend, Workers: serveWorkers, QueueDepth: serveQueue})
	if err != nil {
		return err
	}
	defer s.Close()
	now := time.Now()
	d := &loadgen{s: s, work: func(seed int64) sched.Work { return sched.WireMatmul{N: serveN, Seed: seed} },
		check: checkProduct, deadline: now.Add(time.Minute)}
	outs := d.closedLoop(now, now.Add(time.Minute), n, serveWorkers+saturationQueued, seed)
	d.wait()
	for _, o := range outs {
		if o.status != statusOK {
			return fmt.Errorf("job %d: %v", o.id, o.err)
		}
	}
	if len(outs) != n {
		return fmt.Errorf("%d of %d jobs offered", len(outs), n)
	}
	return nil
}

// servePass is one measured pass: the fixed-rate phase, then the
// saturation phase.
type servePass struct {
	fixed, sat []*outcome
	capacity   float64 // jobs/s completed in the saturation window
}

func (p *servePass) all() []*outcome { return append(append([]*outcome(nil), p.fixed...), p.sat...) }

// runServePass offers arrs at their due times, then saturates for sat,
// on a fresh scheduler over backend. rec, when non-nil, receives the
// work spans (the caller wraps backend for the wire spans).
func runServePass(backend sched.Backend, arrs []arrival, fixed, sat time.Duration, seed int64, rec *recorder) (*servePass, error) {
	s, err := sched.New(sched.Config{Cluster: backend, Workers: serveWorkers, QueueDepth: serveQueue})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	work := func(seed int64) sched.Work { return sched.WireMatmul{N: serveN, Seed: seed} }
	if rec != nil {
		work = func(seed int64) sched.Work { return timedWork{sched.WireMatmul{N: serveN, Seed: seed}, rec} }
	}
	base := time.Now().Add(10 * time.Millisecond)
	satStart, satEnd := base.Add(fixed), base.Add(fixed+sat)
	d := &loadgen{s: s, work: work, check: checkProduct, deadline: satEnd.Add(drainGrace)}
	p := &servePass{fixed: d.openLoop(base, arrs)}
	p.sat = d.closedLoop(satStart, satEnd, 0, serveWorkers+saturationQueued, seed^0x5a7)
	d.wait()
	var done []time.Time
	for _, o := range p.all() {
		if o.status == statusOK {
			done = append(done, o.done)
		}
	}
	p.capacity = rateIn(done, satStart.Add(capacitySkip), satEnd)
	return p, nil
}

// latencies returns the fixed-phase latencies in ms, +Inf for every
// arrival that did not finish correctly.
func latencies(outs []*outcome) []float64 {
	l := make([]float64, len(outs))
	for i, o := range outs {
		l[i] = math.Inf(1)
		if o.status == statusOK {
			l[i] = ms(o.latency())
		}
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally fills attempted, failed and correct from outs.
func (r *result) tally(outs []*outcome) {
	for _, o := range outs {
		r.Attempted++
		if o.status != statusOK {
			r.Failed++
		}
		if o.status == statusWrong {
			r.Correct = false
		}
	}
}

func runServe(cfg runConfig, resident bool) (*result, error) {
	var c *cluster
	var setups []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		if c != nil {
			c.kill()
		}
		t := time.Now()
		var err error
		c, err = setupServe(filepath.Join(stateRoot, fmt.Sprint(rep)), resident, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer c.kill()
	if err := runJobs(c.rc, primeJobs, cfg.seed^0x9e3); err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}

	total := time.Duration(cfg.seconds) * time.Second
	fixed := time.Duration(float64(total) * fixedShare)
	sat := total - fixed
	arrs := poissonArrivals(cfg.seed, serveRate, fixed)
	if len(arrs) == 0 {
		return nil, fmt.Errorf("no arrivals in a %v fixed-rate phase", fixed)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain, err := runServePass(c.rc, arrs, fixed, sat, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	lat := latencies(plain.fixed)
	res.tally(plain.all())
	if cfg.trace == 0 {
		res.put("setup_s", median(setups), "s")
		res.put("job_p50_ms", percentile(lat, 50), "ms")
		res.put("capacity_jobs_s", plain.capacity, "1/s")
		return res, nil
	}

	// Traced pass: same schedule and job stream, on the same warmed
	// cluster, with every layer boundary timed.
	rec := &recorder{}
	d0, err := readUsages(c.pids)
	if err != nil {
		return nil, err
	}
	f0, err := readUsage("self")
	if err != nil {
		return nil, err
	}
	traced, err := runServePass(&tracedCluster{c.rc, rec}, arrs, fixed, sat, cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	d1, err := readUsages(c.pids)
	if err != nil {
		return nil, err
	}
	f1, err := readUsage("self")
	if err != nil {
		return nil, err
	}
	res.tally(traced.all())
	var idle []float64
	for i := 0; i < idleProbes; i++ {
		t := time.Now()
		if err := c.rc.WaitJob(1<<63|uint64(i), 5*time.Second); err != nil {
			return nil, fmt.Errorf("idle WaitJob: %w", err)
		}
		idle = append(idle, ms(time.Since(t)))
	}
	c.kill()

	doneJobs := 0
	for _, o := range traced.all() {
		if o.status == statusOK {
			doneJobs++
		}
	}
	if doneJobs == 0 {
		return nil, fmt.Errorf("traced pass finished no job")
	}
	layers := serveLayers(traced, rec.snapshot())
	for k, v := range layers {
		res.Metrics[k] = v
	}
	tlat := latencies(traced.fixed)
	res.put("tail.job_p90_ms", percentile(lat, 90), "ms")
	res.put("tail.slo_500ms_ok_frac", sloFrac(plain.fixed), "frac")
	res.put("trace.job_p50_ms", percentile(tlat, 50), "ms")
	res.put("trace.overhead_ms", percentile(tlat, 50)-percentile(lat, 50), "ms")
	res.put("wire.waitjob_idle_ms", median(idle), "ms")
	dd, fd := d1.sub(d0), f1.sub(f0)
	res.put("wire.daemon_cpu_ms_per_job", dd.CPUms/float64(doneJobs), "ms")
	res.put("wire.daemon_write_kb_per_job", float64(dd.WriteB)/1024/float64(doneJobs), "KiB")
	res.put("wire.frontend_cpu_ms_per_job", fd.CPUms/float64(doneJobs), "ms")
	res.bypass("navp.") // the serving path runs no navp system
	if _, err := putProbes(res, true); err != nil {
		return nil, err
	}
	return res, writeServeTrace(cfg, traced, rec)
}

// sloFrac is the share of offered arrivals that finished correctly
// within sloLimit.
func sloFrac(outs []*outcome) float64 {
	ok := 0
	for _, o := range outs {
		if o.status == statusOK && o.latency() <= sloLimit {
			ok++
		}
	}
	return float64(ok) / float64(len(outs))
}

// serveLayers derives the sched and wire-control metrics of a traced
// pass. Per-job figures come from the fixed-rate phase, whose latency
// the end-to-end metrics report; counts per job divide by its finished
// jobs.
func serveLayers(p *servePass, spans []span) map[string]metric {
	byJob := map[uint64][]span{}
	for _, s := range spans {
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	var late, submit, queue, finish, accounted []float64
	perOp := map[string][]float64{}
	jobs := 0
	for _, o := range p.fixed {
		late = append(late, ms(o.submit.Sub(o.due)))
		submit = append(submit, float64(o.accepted.Sub(o.submit))/float64(time.Microsecond))
		if o.status != statusOK {
			continue
		}
		jobs++
		var runStart, runEnd time.Time
		for _, s := range byJob[o.id] {
			if s.Name != "work.run" {
				continue
			}
			if runStart.IsZero() || s.Start.Before(runStart) {
				runStart = s.Start
			}
			if s.End.After(runEnd) {
				runEnd = s.End
			}
		}
		if runStart.IsZero() {
			continue
		}
		var wireInRun time.Duration
		for _, s := range byJob[o.id] {
			if s.Name == "work.run" {
				continue
			}
			perOp[s.Name] = append(perOp[s.Name], s.ms())
			if !s.Start.Before(runStart) && !s.End.After(runEnd) {
				wireInRun += s.End.Sub(s.Start)
			}
		}
		q, f := runStart.Sub(o.accepted), o.done.Sub(runEnd)
		queue = append(queue, ms(q))
		finish = append(finish, ms(f))
		accounted = append(accounted, float64(q+wireInRun+f)/float64(o.latency()))
	}
	attempts, done, rejected := 0, 0, 0
	for _, o := range p.all() {
		switch o.status {
		case statusOK:
			attempts += o.attempts
			done++
		case statusRejected:
			rejected++
		}
	}
	m := map[string]metric{
		"gen.late_ms":             {percentile(late, 90), "ms"},
		"sched.submit_us":         {median(submit), "us"},
		"sched.queue_wait_p50_ms": {percentile(queue, 50), "ms"},
		"sched.queue_wait_p90_ms": {percentile(queue, 90), "ms"},
		"sched.finish_ms":         {median(finish), "ms"},
		"sched.attempts_per_job":  {float64(attempts) / float64(max(done, 1)), "count"},
		"sched.rejected":          {float64(rejected), "count"},
		"trace.accounted_frac":    {median(accounted), "frac"},
	}
	for _, op := range []struct{ span, name string }{
		{spanSetVar, "wire.setvar"}, {spanInject, "wire.inject"}, {spanWaitJob, "wire.waitjob"},
		{spanGetVar, "wire.getvar"}, {spanRelease, "wire.release"}, {spanClearVars, "wire.clearvars"},
	} {
		m[op.name+"_ms"] = metric{median(perOp[op.span]), "ms"}
	}
	for _, op := range []struct{ span, name string }{
		{spanSetVar, "wire.setvar"}, {spanInject, "wire.inject"}, {spanGetVar, "wire.getvar"},
	} {
		m[op.name+"_calls_per_job"] = metric{float64(len(perOp[op.span])) / float64(max(jobs, 1)), "count"}
	}
	return m
}

// writeServeTrace writes the traced pass's spans, plus the generator's
// own per-job spans.
func writeServeTrace(cfg runConfig, p *servePass, rec *recorder) error {
	spans := rec.snapshot()
	for _, o := range p.all() {
		if o.id == 0 || o.end.IsZero() {
			continue
		}
		spans = append(spans,
			span{Name: "job", Job: o.id, Start: o.due, End: o.end},
			span{Name: "sched.submit", Job: o.id, Start: o.submit, End: o.accepted},
			span{Name: "sched.result", Job: o.id, Start: o.done, End: o.end})
	}
	return saveTrace(cfg, spans)
}

// rateIn returns the completions per second in [lo, hi). It counts
// completions rather than timing the first and the last: jobs held up
// by a stall finish in a bunch, and a bunch must not read as speed.
func rateIn(done []time.Time, lo, hi time.Time) float64 {
	n := 0
	for _, t := range done {
		if !t.Before(lo) && t.Before(hi) {
			n++
		}
	}
	return float64(n) / hi.Sub(lo).Seconds()
}
