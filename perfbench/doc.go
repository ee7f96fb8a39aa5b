// Command perfbench is the repository's benchmark: one command that runs
// a named workload end to end, checks every output, and prints its
// metrics by name with their units. BENCHMARK.json at the repository
// root declares the workloads and metrics; perfbench/run.sh builds this
// package from the checkout and runs it:
//
//	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it starts with
// "fingerprint" and records the host: nproc, GOMAXPROCS, CPU model, the
// GEMM micro-kernel and where its blocking came from, the filesystem of
// the state directory, and the share of CPU time the hypervisor stole
// during the run. The exit code is non-zero when a job returned a wrong
// result or the run could not be made. The benchmark runs on Linux
// only: it reads /proc and arms a parent-death signal.
//
// # Workloads
//
//   - serve-light: open-loop arrivals of sched.WireMatmul{N: 16} at
//     3 jobs/s, about a quarter of the capacity of a 2-core host, for
//     three quarters of --seconds (68 arrivals at 30 s); then a
//     saturation phase that keeps workers + 4 jobs outstanding, so the
//     admission queue never runs dry. Jobs run on max(2, nproc) daemon OS processes
//     spawned with wire.SpawnHost, under a sched.Scheduler in this
//     process with navpserve's front-end defaults (8 workers, queue 64,
//     round-robin). Per-job fixed costs dominate: ~70 control round
//     trips, 16 small hops, termination polling and snapshots of small
//     state. A change to termination detection or to the codec shows
//     here.
//   - serve-resident: the same seed, rate, job stream and cluster, but at
//     set-up each daemon receives 32 KiB of parked tenant data (one
//     64×64 float64 block through the public SetVar), which more than
//     doubles every snapshot. Every hop ack and control write
//     re-snapshots all resident state, so persistence dominates (about
//     2.5× the bytes written per job of serve-light); a cheaper
//     persistence path moves this workload far more than serve-light.
//   - paper-phase1d: the paper's Figure 9 stage, matmul.Run(Phase1D) at
//     N=1536, BS=256 on 2 goroutine PEs of the real backend, solved back
//     to back in this process and checked against a Sequential reference
//     computed at set-up (max |difference| ≤ 1e-9). It is dominated by
//     the kernel and bypasses sched and wire entirely: a wire or sched
//     change predicts no change here, a kernel or navp change shows here
//     and not on serve-*.
//
// The arrivals are a Poisson process conditioned on its count (see
// poissonArrivals). The arrival schedule and every job's inputs come
// from --seed; the program under test receives only the generated
// inputs.
//
// Before anything is measured, a serving cluster is primed with 64 jobs:
// each daemon's snapshot carries up to 1024 retired dedup entries, so
// snapshots, and the cost of every sync, grow over the first ~64 jobs
// and then stay flat. Without priming, latency drifts upward through
// the fixed-rate phase.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: the median of three set-ups. serve-*: spawn the daemons,
//     wait until every daemon and the client see all members, park the
//     resident data, run 16 warm-up jobs. paper-phase1d: the Sequential
//     reference plus one verified warm-up solve.
//   - job_p50_ms: nearest-rank median job latency. serve-*: fixed-rate
//     phase, from when an arrival was due until Result returned, with
//     failed, evicted and rejected arrivals as +∞ (printed as 1e12).
//     paper-phase1d: wall time of one verified solve, input generation
//     included, i.e. the solve time.
//   - capacity_jobs_s: serve-*: completions per second in the saturation
//     phase after its first second; the highest rate served without a
//     growing backlog.
//     paper-phase1d: solves per second back to back.
//
// Failures are not a metric, since a metric must never read 0: the
// result's attempted and failed fields carry them, and a wrong result
// makes correct false. The 90th percentile and the share of jobs within
// 500 ms are reported with the per-layer metrics, as tail.*: on a
// shared 2-vCPU host their run-to-run spread is wider than any bound a
// regression gate can use.
//
// # Per-layer metrics (--trace 1)
//
// A traced run makes the untraced pass first and then a second pass of
// the same schedule and job stream with every layer boundary timed from
// outside the program: Backend calls through tracedCluster, Work.Run
// through timedWork, Submit/Done/Result in the generator. Spans are kept
// in memory, one per layer call keyed by job id under the job's own
// span, and written at the end as a trace-event file under
// .bench_build/run. Layers a workload never enters report 0. Each
// metric, and the end-to-end metric it should move:
//
//   - gen.late_ms: p90 of how late the generator submitted (due to
//     Submit). Not a layer of the program; it must stay far below
//     job_p50_ms for the latencies to mean anything.
//   - sched.submit_us (p50 of Submit), sched.queue_wait_p50_ms and
//     sched.queue_wait_p90_ms (Submit returned to Work.Run entered):
//     tail.job_p90_ms on serve-*.
//   - sched.finish_ms (Run returned to Done closed: the ReleaseJob and
//     ClearVarsPrefix broadcasts): job_p50_ms on serve-light.
//   - sched.attempts_per_job (attempts ÷ jobs done), sched.rejected:
//     the failed count.
//   - wire.setvar_ms, wire.setvar_calls_per_job (each SetVar includes
//     the daemon's full-state sync before it answers): job_p50_ms on
//     serve-resident far more than on serve-light.
//   - wire.inject_ms, wire.inject_calls_per_job; wire.waitjob_ms (hops,
//     compute and termination lag); wire.getvar_ms and
//     wire.getvar_calls_per_job (n × PEs = 32 at n = 16): job_p50_ms on
//     both serve-*.
//   - wire.waitjob_idle_ms (WaitJob on an unused namespace, the floor
//     of the polling termination detector): job_p50_ms on serve-light.
//   - wire.release_ms, wire.clearvars_ms: sched.finish_ms.
//   - wire.daemon_cpu_ms_per_job and wire.daemon_write_kb_per_job, read
//     from /proc/<daemon>/stat and /proc/<daemon>/io (wchar: bytes handed
//     to write calls, state files and sockets alike) over the traced
//     pass: capacity_jobs_s on both serve-* (the cores are the
//     bottleneck), and job_p50_ms on serve-resident.
//   - wire.frontend_cpu_ms_per_job: this process's CPU per job,
//     generator included.
//   - wire.frame_encode_us, wire.frame_decode_us, wire.frame_bytes,
//     wire.frame_decode_allocs, wire.state_encode_us: the wire.Bench*
//     codec hooks on a carrier-shaped state at n = 16, measured on every
//     workload: job_p50_ms and capacity_jobs_s on serve-light. Gob type
//     ids depend on what the process encoded before, so frame_bytes
//     repeats exactly per workload, not across workloads.
//   - matrix.block_gflops: single-thread Block.MulAdd at BS = 256;
//     matrix.seq_s: the Sequential stage at N = 1536. They should move
//     paper-phase1d only.
//   - navp.hops, navp.injects, navp.waits: exact counts per solve from
//     matmul.Config.Metrics. navp.non_compute_s: the median solve minus
//     2N³ ÷ (P × block rate), computed rather than measured. They
//     should move job_p50_ms on paper-phase1d only.
//   - tail.job_p90_ms, tail.slo_500ms_ok_frac: the untraced pass's 90th
//     percentile latency and share of offered jobs finished correctly
//     within 500 ms.
//   - trace.job_p50_ms: job_p50_ms of the traced pass;
//     trace.overhead_ms: it minus the untraced pass's job_p50_ms.
//   - trace.accounted_frac: median over jobs of (queue wait + wire call
//     time inside Run + finish) ÷ latency on serve-*; on paper-phase1d,
//     the compute share 2N³ ÷ (P × block rate) of the median solve.
//
// # Where state lives
//
// Everything a run writes stays under .bench_build in the directory it
// runs from: the daemons' state directories, the pid file of live
// daemons, and the traces. run.sh also points the Go build cache and
// the user cache there, so the GEMM kernel runs with its default
// blocking rather than a host's tuned cache. The state directory is on
// whatever disk holds the checkout: the crash model is process death
// and the daemons do not fsync, so a disk-backed directory keeps the
// durability semantics of a deployment, and persistence cost shows as
// daemon CPU and bytes written. A tmpfs would be steadier, but it lies
// outside the checkout.
//
// Daemons are killed with SIGKILL on every exit path: after each
// set-up that is not kept, at the end of a run, on SIGINT, SIGTERM and
// SIGHUP, and through a parent-death signal when the benchmark itself
// is killed. A run first kills any daemon an earlier run left alive and
// deletes the state an earlier run left behind.
package main
