package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Span names of the wire control layer, one per timed Backend method.
const (
	spanSetVar    = "wire.setvar"
	spanGetVar    = "wire.getvar"
	spanInject    = "wire.inject"
	spanWaitJob   = "wire.waitjob"
	spanCancel    = "wire.cancel"
	spanRelease   = "wire.release"
	spanClearVars = "wire.clearvars"
)

// tracedCluster times every sched.Backend call that crosses to the
// daemons and attributes it to the scheduler job it serves. It embeds
// the client it wraps, so it has every method the client has: the
// scheduler and its works type-assert the optional Backend extensions
// (Liveness, Migrator, Freezer, Elastic, Grower), and a wrapper that
// hid one, or claimed one the client lacks, would send the traced pass
// down other code paths than the untraced pass it is compared with.
type tracedCluster struct {
	*wire.RemoteCluster
	rec *recorder
}

// jobOfNS maps a wire namespace back to its scheduler job: the
// scheduler mints namespace = job id << 8 | attempt byte.
func jobOfNS(ns uint64) uint64 { return ns >> 8 }

// jobOfVar maps a node-variable key ("j<namespace>:...", the scheduler's
// per-attempt prefix) to its job; 0 for keys outside any job.
func jobOfVar(name string) uint64 {
	rest, ok := strings.CutPrefix(name, "j")
	if !ok {
		return 0
	}
	ns, _, ok := strings.Cut(rest, ":")
	if !ok {
		return 0
	}
	v, err := strconv.ParseUint(ns, 10, 64)
	if err != nil {
		return 0
	}
	return jobOfNS(v)
}

func (b *tracedCluster) SetVar(node int, name string, v any) error {
	t := time.Now()
	err := b.RemoteCluster.SetVar(node, name, v)
	b.rec.add(spanSetVar, jobOfVar(name), t, time.Now())
	return err
}

func (b *tracedCluster) GetVar(node int, name string) (any, error) {
	t := time.Now()
	v, err := b.RemoteCluster.GetVar(node, name)
	b.rec.add(spanGetVar, jobOfVar(name), t, time.Now())
	return v, err
}

func (b *tracedCluster) InjectJob(node int, job uint64, behavior string, state any) error {
	t := time.Now()
	err := b.RemoteCluster.InjectJob(node, job, behavior, state)
	b.rec.add(spanInject, jobOfNS(job), t, time.Now())
	return err
}

func (b *tracedCluster) WaitJob(job uint64, timeout time.Duration) error {
	t := time.Now()
	err := b.RemoteCluster.WaitJob(job, timeout)
	b.rec.add(spanWaitJob, jobOfNS(job), t, time.Now())
	return err
}

func (b *tracedCluster) CancelJob(job uint64) {
	t := time.Now()
	b.RemoteCluster.CancelJob(job)
	b.rec.add(spanCancel, jobOfNS(job), t, time.Now())
}

func (b *tracedCluster) ReleaseJob(job uint64) {
	t := time.Now()
	b.RemoteCluster.ReleaseJob(job)
	b.rec.add(spanRelease, jobOfNS(job), t, time.Now())
}

func (b *tracedCluster) ClearVarsPrefix(prefix string) {
	t := time.Now()
	b.RemoteCluster.ClearVarsPrefix(prefix)
	b.rec.add(spanClearVars, jobOfVar(prefix), t, time.Now())
}
