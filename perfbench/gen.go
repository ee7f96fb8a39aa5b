package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
)

// The benchmark drives the scheduler in-process through Submit, Done
// and Result instead of reusing sched.RunOpenLoop. That generator
// polls job status over HTTP every 5 ms per job, which adds load and a
// polling lag to every latency it reports; it times a job from the
// moment it was actually submitted, so a stalled submitter hides the
// delay it imposed (coordinated omission); and it leaves failed jobs
// out of its percentiles. Here every arrival is timed from when it was
// due, lateness is reported separately, and a failed, evicted or
// rejected arrival counts as an infinite latency.

// arrival is one job of an open-loop schedule: when it is due, as an
// offset from the start of the phase, and the seed of its inputs.
type arrival struct {
	Due  time.Duration
	Seed int64
}

// poissonArrivals draws the arrivals of a Poisson process of the given
// rate (per second) over window from seed, conditioned on their count:
// exactly round(rate × window) arrivals at sorted uniform times, which
// is the distribution of a Poisson process's arrival times given their
// number. Every run offers the same load with the same burstiness, so
// runs on different seeds differ in when jobs arrive, not how many. The
// same seed gives the same schedule and the same job inputs.
func poissonArrivals(seed int64, rate float64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i].Due = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	for i := range out {
		out[i].Seed = rng.Int63()
	}
	return out
}

// Outcome classes of one offered job.
const (
	statusOK       = iota
	statusFailed   // failed, evicted or timed out
	statusRejected // refused at admission
	statusWrong    // finished with a wrong product
)

// outcome is what happened to one offered job. due, submit and
// accepted are set by the submitting goroutine before it starts the
// waiter; the rest by the waiter.
type outcome struct {
	id       uint64
	due      time.Time // when the arrival was scheduled
	submit   time.Time // Submit called
	accepted time.Time // Submit returned
	done     time.Time // Done channel observed closed
	end      time.Time // Result returned
	attempts int
	status   int
	err      error
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

// loadgen offers jobs to one scheduler and collects their outcomes.
type loadgen struct {
	s        *sched.Scheduler
	work     func(seed int64) sched.Work
	check    func(res any) error
	deadline time.Time // waiters give up here; the job counts as failed
	wg       sync.WaitGroup
}

// submit offers o's job now and, once admitted, starts a waiter that
// records its end; release, if non-nil, runs when the job is over.
func (d *loadgen) submit(o *outcome, seed int64, release func()) {
	o.submit = time.Now()
	id, err := d.s.Submit(sched.Spec{Work: d.work(seed)})
	o.accepted = time.Now()
	if err != nil {
		o.err, o.status = err, statusFailed
		if errors.Is(err, sched.ErrQueueFull) {
			o.status = statusRejected
		}
		if release != nil {
			release()
		}
		return
	}
	o.id = id
	d.wg.Add(1)
	go d.await(o, release)
}

func (d *loadgen) await(o *outcome, release func()) {
	defer d.wg.Done()
	if release != nil {
		defer release()
	}
	ch, err := d.s.Done(o.id)
	if err != nil {
		o.err, o.status = err, statusFailed
		return
	}
	t := time.NewTimer(time.Until(d.deadline))
	defer t.Stop()
	select {
	case <-ch:
		o.done = time.Now()
	case <-t.C:
		o.err, o.status = fmt.Errorf("job %d unfinished at the run deadline", o.id), statusFailed
		return
	}
	if st, err := d.s.Status(o.id); err == nil {
		o.attempts = st.Attempts
	}
	res, err := d.s.Result(o.id)
	o.end = time.Now()
	switch {
	case err != nil && strings.Contains(err.Error(), "wirematmul C["):
		// WireMatmul's self-check found a wrong product.
		o.err, o.status = err, statusWrong
	case err != nil:
		o.err, o.status = err, statusFailed
	default:
		if err := d.check(res); err != nil {
			o.err, o.status = err, statusWrong
		}
	}
}

// openLoop offers arrs on schedule from base, with at most nproc
// submitting goroutines (arrival i goes to submitter i mod nproc, so
// one late wake-up does not delay the arrivals after it). It returns
// once every arrival is offered; waiters keep running until wait.
func (d *loadgen) openLoop(base time.Time, arrs []arrival) []*outcome {
	outs := make([]*outcome, len(arrs))
	for i := range outs {
		outs[i] = &outcome{due: base.Add(arrs[i].Due)}
	}
	subs := runtime.NumCPU()
	var wg sync.WaitGroup
	for k := 0; k < subs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(arrs); i += subs {
				time.Sleep(time.Until(outs[i].due))
				d.submit(outs[i], arrs[i].Seed, nil)
			}
		}(k)
	}
	wg.Wait()
	return outs
}

// closedLoop keeps backlog jobs outstanding from start until end or
// until limit jobs were offered (0: no limit), each next job submitted
// as soon as one finishes, so the admission queue never runs dry. Job
// seeds come from seed.
func (d *loadgen) closedLoop(start, end time.Time, limit, backlog int, seed int64) []*outcome {
	rng := rand.New(rand.NewSource(seed))
	slots := make(chan struct{}, backlog) // a counting semaphore
	release := func() { <-slots }
	time.Sleep(time.Until(start))
	var outs []*outcome
	for limit == 0 || len(outs) < limit {
		t := time.NewTimer(time.Until(end))
		select {
		case slots <- struct{}{}:
			t.Stop()
		case <-t.C:
			return outs
		}
		now := time.Now()
		if !now.Before(end) {
			release()
			return outs
		}
		o := &outcome{due: now}
		outs = append(outs, o)
		d.submit(o, rng.Int63(), release)
	}
	return outs
}

// wait blocks until every admitted job is over or the deadline passed.
func (d *loadgen) wait() { d.wg.Wait() }
