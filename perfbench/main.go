package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// workDir holds everything a run writes: daemon state, the pid file of
// live daemons, and trace files. It is relative to the directory the
// benchmark runs from, the root of a checkout.
const workDir = ".bench_build/run"

// stateRoot holds the daemons' state directories, one per set-up.
var stateRoot = filepath.Join(workDir, "state")

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

var workloads = map[string]func(runConfig) (*result, error){
	"serve-light":    func(c runConfig) (*result, error) { return runServe(c, false) },
	"serve-resident": func(c runConfig) (*result, error) { return runServe(c, true) },
	"paper-phase1d":  runPhase,
}

// endToEnd and perLayer are the metrics a run prints with --trace 0 and
// --trace 1, with their units; BENCHMARK.json declares the same sets.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"job_p50_ms":      "ms",
	"capacity_jobs_s": "1/s",
}

var perLayer = map[string]string{
	"gen.late_ms":                  "ms",
	"sched.submit_us":              "us",
	"sched.queue_wait_p50_ms":      "ms",
	"sched.queue_wait_p90_ms":      "ms",
	"sched.finish_ms":              "ms",
	"sched.attempts_per_job":       "count",
	"sched.rejected":               "count",
	"wire.setvar_ms":               "ms",
	"wire.setvar_calls_per_job":    "count",
	"wire.inject_ms":               "ms",
	"wire.inject_calls_per_job":    "count",
	"wire.waitjob_ms":              "ms",
	"wire.waitjob_idle_ms":         "ms",
	"wire.getvar_ms":               "ms",
	"wire.getvar_calls_per_job":    "count",
	"wire.release_ms":              "ms",
	"wire.clearvars_ms":            "ms",
	"wire.daemon_cpu_ms_per_job":   "ms",
	"wire.daemon_write_kb_per_job": "KiB",
	"wire.frontend_cpu_ms_per_job": "ms",
	"wire.frame_encode_us":         "us",
	"wire.frame_decode_us":         "us",
	"wire.frame_bytes":             "B",
	"wire.frame_decode_allocs":     "count",
	"wire.state_encode_us":         "us",
	"matrix.block_gflops":          "GFLOP/s",
	"matrix.seq_s":                 "s",
	"navp.hops":                    "count",
	"navp.injects":                 "count",
	"navp.waits":                   "count",
	"navp.non_compute_s":           "s",
	"tail.job_p90_ms":              "ms",
	"tail.slo_500ms_ok_frac":       "frac",
	"trace.job_p50_ms":             "ms",
	"trace.overhead_ms":            "ms",
	"trace.accounted_frac":         "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// notFinite stands in for a percentile that reached into failed jobs
// (+Inf): JSON has no infinity, and any finite stand-in far above every
// real latency reads as the regression it is.
const notFinite = 1e12

func (r *result) put(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = notFinite
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// bypass reports 0 for every unset per-layer metric under the given
// prefixes: layers the workload never enters.
func (r *result) bypass(prefixes ...string) {
	for name, unit := range perLayer {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.Metrics[name] = metric{Value: 0, Unit: unit}
			}
		}
	}
}

// checkSet fails unless r reports exactly the metrics of want, in
// their units.
func (r *result) checkSet(want map[string]string) error {
	var missing, extra []string
	for name, unit := range want {
		if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
			missing = append(missing, name)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing or wrong unit %v, unexpected %v", missing, extra)
	}
	return nil
}

func main() {
	if wire.HostMode() {
		os.Exit(runDaemon())
	}
	os.Exit(run(os.Args[1:]))
}

// runDaemon is the whole life of a daemon child. The parent-death
// signal makes the kernel kill -9 the daemon when the benchmark
// process dies by any means, SIGKILL included, so no daemon outlives
// its run to load the next one.
func runDaemon() int {
	if ppid, err := strconv.Atoi(os.Getenv(parentEnv)); err == nil {
		if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_PDEATHSIG, uintptr(syscall.SIGKILL), 0); errno != 0 {
			fmt.Fprintln(os.Stderr, "perfbench daemon: prctl:", errno)
			return 1
		}
		if os.Getppid() != ppid { // the parent died before the signal was armed
			return 1
		}
	}
	return wire.RunHostFromEnv()
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: serve-light, serve-resident or paper-phase1d")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "measured seconds per pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (serve-light|serve-resident|paper-phase1d), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if n, err := reapStale(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stale daemons:", err)
		return 1
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: killed %d daemon(s) left alive by an earlier run\n", n)
	}
	// A daemon reloads whatever snapshot its state directory holds, so
	// state an earlier run left behind must not reach this one.
	if err := os.RemoveAll(stateRoot); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench:", sig)
		os.Exit(1)
	}()
	defer killAll()

	cpu0, _ := os.ReadFile("/proc/stat")
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace}
	res, err := wl(cfg)
	cpu1, _ := os.ReadFile("/proc/stat")
	fp := fingerprint()
	fp["steal_pct"] = stealPct(cpu0, cpu1)
	if b, err := json.Marshal(fp); err == nil {
		fmt.Printf("fingerprint %s\n", b)
	}
	if err == nil {
		want := endToEnd
		if cfg.trace == 1 {
			want = perLayer
		}
		err = res.checkSet(want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: a job returned a wrong result")
		return 1
	}
	return 0
}

// fingerprint describes the host a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		cpu = parseCPUModel(b)
	}
	mc, kc, nc, src := matrix.ActiveBlocking()
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"kernel":     matrix.ActiveKernel(),
		"blocking":   fmt.Sprintf("%s mc=%d kc=%d nc=%d", src, mc, kc, nc),
		"daemons":    daemonCount(),
		"state_fs":   fsType(workDir),
		"state_dir":  workDir,
	}
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
