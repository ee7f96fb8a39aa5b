// Command paperbench regenerates the evaluation tables and supporting
// experiments of "Incremental Parallelization Using Navigational
// Programming: A Case Study" (ICPP 2005) on the simulated testbed.
//
// Usage:
//
//	paperbench -table all          # Tables 1–4
//	paperbench -table 3 -compare   # Table 3 with the paper's values
//	paperbench -stagger            # §5(3) staggering phase counts
//	paperbench -ablations          # pointer-swap / overlap / block-size
//	paperbench -quick              # truncated tables (smoke test)
//	paperbench -regress            # measure the fast data paths, write BENCH_*.json
//	paperbench -tune               # autotune GEMM blocking for this host, cache the winner
//	paperbench -serve              # open-loop scaling sweep over real daemon processes,
//	                               # write BENCH_sched.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/wire"
)

func main() {
	// A re-exec'd child of the -serve sweep: become a daemon host
	// instead of a benchmark run. Checked before flag parsing so host
	// processes need no arguments.
	if wire.HostMode() {
		os.Exit(wire.RunHostFromEnv())
	}
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, 4, or all")
	compare := flag.Bool("compare", false, "print the paper's published values next to the measured ones")
	quick := flag.Bool("quick", false, "truncate each table to its two smallest problem sizes")
	stagger := flag.Bool("stagger", false, "run the §5(3) staggering phase-count analysis")
	ablations := flag.Bool("ablations", false, "run the ablation experiments")
	report := flag.Bool("report", false, "emit the full markdown reproduction report (tables, staggering, ablations)")
	regress := flag.Bool("regress", false, "benchmark the fast data paths and write BENCH_kernels.json + BENCH_wire.json")
	regressOut := flag.String("regress-out", ".", "directory the -regress and -serve JSON files are written to")
	observe := flag.String("observe", "", "run a small deterministic chaos sim and write Perfetto + metrics artifacts into this directory")
	serve := flag.Bool("serve", false, "run the open-loop serving scaling sweep over real daemon processes and write BENCH_sched.json")
	tune := flag.Bool("tune", false, "search GEMM blocking parameters for this host and cache the winner")
	modern := flag.Bool("modern", false, "re-run the paper's tables on a modern machine model fed by this host's measured kernel rate, plus a real-backend anchor run")
	flag.Parse()

	if *table == "" && !*stagger && !*ablations && !*report && !*regress && !*serve && !*tune && !*modern && *observe == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *tune {
		if err := runTune(*quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report && !*regress && !*serve && !*modern {
			return
		}
	}

	if *modern {
		if err := runModern(*quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report && !*regress && !*serve {
			return
		}
	}

	if *serve {
		if err := runServe(*regressOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report && !*regress {
			return
		}
	}

	if *observe != "" {
		if err := bench.Observe(*observe); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report && !*regress {
			return
		}
	}
	opt := bench.Options{Quick: *quick}

	if *regress {
		if err := runRegress(*regressOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report {
			return
		}
	}

	if *report {
		out, err := bench.Report(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	runners := map[string]func(bench.Options) (*bench.Table, error){
		"1": bench.Table1, "2": bench.Table2, "3": bench.Table3, "4": bench.Table4,
	}
	var order []string
	switch *table {
	case "":
	case "all":
		order = []string{"1", "2", "3", "4"}
	default:
		if _, ok := runners[*table]; !ok {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
		order = []string{*table}
	}
	for _, id := range order {
		t, err := runners[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "table %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(t.Format())
		if *compare {
			printComparison(t)
		}
		fmt.Println()
	}

	if *stagger {
		out, err := bench.FormatStagger(2, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *ablations {
		runAblations(opt)
	}
}

// runTune searches the MC/KC/NC blocking space for every micro-kernel
// variant this host can execute, prints the measured table, and caches
// the per-variant winners so every later Kernel user (tables,
// benchmarks, the regression harness) runs with them.
func runTune(quick bool) error {
	fmt.Printf("autotuning GEMM on %s %v\n", matrix.CPUModel(), matrix.CPUFeatures())
	f := matrix.TuneSearch(matrix.TuneOptions{Quick: quick, Progress: func(t matrix.TuneTrial) {
		fmt.Printf("  %-10s mc=%-4d kc=%-4d nc=%-5d %7.2f GFLOP/s\n", t.Variant, t.MC, t.KC, t.NC, t.GFlops)
	}})
	fmt.Println("winners:")
	for _, b := range f.Best {
		fmt.Printf("  %-10s mc=%-4d kc=%-4d nc=%-5d %7.2f GFLOP/s\n", b.Variant, b.MC, b.KC, b.NC, b.GFlops)
	}
	path, err := matrix.SaveTune(f)
	if err != nil {
		return err
	}
	fmt.Printf("cached to %s\n", path)
	return nil
}

// runModern re-runs the paper's table structure on the modern machine
// model (machine.Modern) with the CPU rate anchored to this host's
// measured kernel throughput, then closes the loop with a real-backend
// anchor: the same sequential-vs-NavP comparison executed as actual
// float64 GEMM through the dispatched kernel, wall-clock timed here
// (cmd/ is outside the sim domain, so reading the clock is lint-legal).
func runModern(quick bool) error {
	mn, mreps := 1024, 3
	if quick {
		mn, mreps = 512, 1
	}
	rate := matrix.MeasureActiveRate(mn, mreps)
	mc, kc, nc, src := matrix.ActiveBlocking()
	fmt.Printf("measured kernel: %s at %.2f GFLOP/s (n=%d, mc=%d kc=%d nc=%d %s)\n\n",
		matrix.ActiveKernel(), rate/1e9, mn, mc, kc, nc, src)

	tables, err := bench.ModernTables(rate, quick)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Print(t.Format())
		fmt.Println()
	}

	// Real-backend anchor: N chosen so NB=N/BS is divisible by P=3.
	n, bs := 1536, 256
	if quick {
		n, bs = 768, 128
	}
	seqS, err := timedReal(matmul.Sequential, n, bs, 1)
	if err != nil {
		return fmt.Errorf("real sequential: %w", err)
	}
	navS, err := timedReal(matmul.Phase1D, n, bs, 3)
	if err != nil {
		return fmt.Errorf("real 1D phase: %w", err)
	}
	gf := 2 * float64(n) * float64(n) * float64(n) / 1e9
	fmt.Printf("real backend anchor (N=%d, BS=%d, GOMAXPROCS=%d):\n", n, bs, runtime.GOMAXPROCS(0))
	fmt.Printf("  sequential      %8.3fs  %6.2f GFLOP/s\n", seqS, gf/seqS)
	fmt.Printf("  NavP 1D phase   %8.3fs  %6.2f GFLOP/s  (P=3 real goroutines; speedup %.2fx)\n",
		navS, gf/navS, seqS/navS)
	return nil
}

// timedReal wall-clock times one real-backend matmul run.
func timedReal(stage matmul.Stage, n, bs, p int) (float64, error) {
	cfg := matmul.Config{N: n, BS: bs, P: p, Real: true}
	start := time.Now()
	if _, err := matmul.Run(stage, cfg); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runRegress measures the fast data paths (with -quick: shrunken sizes
// for CI smoke runs) and writes the machine-readable regression files.
func runRegress(dir string, quick bool) error {
	kernels := bench.RegressKernels(quick)
	if err := writeRegressFile(filepath.Join(dir, "BENCH_kernels.json"), kernels); err != nil {
		return err
	}
	fmt.Printf("kernel: %s, blocking mc=%d kc=%d nc=%d (%s)\n",
		kernels.Kernel, kernels.BlockMC, kernels.BlockKC, kernels.BlockNC, kernels.BlockSource)
	if n, ratio, err := kernels.KernelSpeedup(); err == nil {
		fmt.Printf("kernel vs naive at n=%d: %.2fx GFLOP/s\n", n, ratio)
	}
	wireFile, err := bench.RegressWire(quick)
	if err != nil {
		return err
	}
	if err := writeRegressFile(filepath.Join(dir, "BENCH_wire.json"), wireFile); err != nil {
		return err
	}
	// Gates run after both files are written so a red run still leaves
	// the measurements on disk for diagnosis.
	if violations := append(kernels.CheckGates(), wireFile.CheckGates()...); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		return fmt.Errorf("regression gates: %d violation(s)", len(violations))
	}
	fmt.Println("regression gates: pass")
	return nil
}

// spawnServeCluster starts n daemon OS processes (node 0 bootstraps on
// an ephemeral port, the rest join through it) with per-node state
// directories under stateRoot, and returns the processes plus a remote
// client for them.
func spawnServeCluster(n int, stateRoot string) ([]*wire.HostProc, *wire.RemoteCluster, error) {
	var procs []*wire.HostProc
	kill := func() {
		for _, p := range procs {
			p.Kill9()
		}
	}
	for i := 0; i < n; i++ {
		cfg := wire.HostConfig{
			Listen:   "127.0.0.1:0",
			StateDir: filepath.Join(stateRoot, fmt.Sprintf("node%d", i)),
		}
		if i > 0 {
			cfg.Join = procs[0].Addr
		}
		p, err := wire.SpawnHost(cfg)
		if err != nil {
			kill()
			return nil, nil, fmt.Errorf("spawn daemon %d: %w", i, err)
		}
		procs = append(procs, p)
	}
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		kill()
		return nil, nil, err
	}
	if rc.Size() != n {
		rc.Close()
		kill()
		return nil, nil, fmt.Errorf("cluster assembled %d of %d daemons", rc.Size(), n)
	}
	return procs, rc, nil
}

// servePoint measures one open-loop run against a freshly spawned
// cluster of `processes` real daemons: scheduler and HTTP API in this
// process, jobs executing across the daemon processes, everything torn
// down before the next point so measurements do not bleed into each
// other.
func servePoint(processes, workers, queue int, ol sched.OpenLoopConfig) (sched.OpenLoopResult, error) {
	var none sched.OpenLoopResult
	stateRoot, err := os.MkdirTemp("", "navp-serve-")
	if err != nil {
		return none, err
	}
	defer os.RemoveAll(stateRoot)
	procs, rc, err := spawnServeCluster(processes, stateRoot)
	if err != nil {
		return none, err
	}
	defer func() {
		rc.Shutdown()
		for _, p := range procs {
			if _, exited := p.Wait(5 * time.Second); !exited {
				p.Kill9()
			}
		}
	}()
	s, err := sched.New(sched.Config{Cluster: rc, Workers: workers, QueueDepth: queue,
		Placement: &sched.ConsistentHash{}})
	if err != nil {
		return none, err
	}
	defer s.Close()
	mux := http.NewServeMux()
	sched.NewServer(s).Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return none, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	ol.BaseURL = "http://" + ln.Addr().String()
	res, err := sched.RunOpenLoop(ol)
	if err != nil {
		return none, err
	}
	return *res, nil
}

// serveElasticPoint measures one open-loop run against a cluster that
// shrinks mid-batch: `from` daemons serve the first half of the offered
// window, then members drain one by one (live agent migration, counter
// absorption, membership leave) until `to` remain. A job whose carriers
// were planned over the old live set can lose one attempt when its ring
// rides into a drained member; the short attempt timeout fails it fast
// and the retry re-plans on the survivors — the zero-lost-results
// contract is Failed == 0 and Evicted == 0 at the end.
func serveElasticPoint(from, to, workers, queue int, ol sched.OpenLoopConfig) (sched.OpenLoopResult, error) {
	var none sched.OpenLoopResult
	stateRoot, err := os.MkdirTemp("", "navp-elastic-")
	if err != nil {
		return none, err
	}
	defer os.RemoveAll(stateRoot)
	procs, rc, err := spawnServeCluster(from, stateRoot)
	if err != nil {
		return none, err
	}
	defer func() {
		rc.Shutdown()
		for _, p := range procs {
			if _, exited := p.Wait(5 * time.Second); !exited {
				p.Kill9()
			}
		}
	}()
	s, err := sched.New(sched.Config{Cluster: rc, Workers: workers, QueueDepth: queue,
		Placement: &sched.ConsistentHash{},
		// Fail a mid-drain attempt fast instead of riding the default
		// 30s budget; the retry budget absorbs it.
		AttemptTimeout: 4 * time.Second,
	})
	if err != nil {
		return none, err
	}
	defer s.Close()
	mux := http.NewServeMux()
	sched.NewServer(s).Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return none, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	ol.BaseURL = "http://" + ln.Addr().String()

	var drainErr error
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		time.Sleep(ol.Duration / 2)
		for node := from - 1; node >= to; node-- {
			if err := rc.Drain(node, 30*time.Second); err != nil {
				drainErr = fmt.Errorf("drain node %d: %w", node, err)
				return
			}
		}
	}()
	res, err := sched.RunOpenLoop(ol)
	<-drained
	if err != nil {
		return none, err
	}
	if drainErr != nil {
		return none, drainErr
	}
	if live := len(rc.LiveNodes()); live != to {
		return none, fmt.Errorf("after shrink %d members placeable, want %d", live, to)
	}
	if res.Done == 0 || res.Failed != 0 || res.Evicted != 0 {
		return none, fmt.Errorf("elastic shrink lost results: %d done, %d failed, %d evicted", res.Done, res.Failed, res.Evicted)
	}
	return *res, nil
}

// runServe sweeps the serving stack across real daemon-process counts
// under a fixed open-loop Poisson load and records the horizontal
// scaling curve — throughput, latency percentiles, SLO verdicts per
// cluster size — in BENCH_sched.json.
func runServe(dir string, quick bool) error {
	const workers, queue = 8, 32
	sizes := []int{1, 2, 4, 8}
	duration := 6 * time.Second
	if quick {
		sizes = []int{1, 2, 4}
		duration = 3 * time.Second
	}
	f := bench.NewServeFile(workers, queue, quick)
	ol := sched.OpenLoopConfig{
		Rate:     12,
		Duration: duration,
		Seed:     1,
		Request:  sched.SubmitRequest{Kind: "wirematmul", N: 8, Retries: 2},
		// SLO targets for the small wirematmul: generous enough for a
		// single loopback daemon with disk persistence, tight enough
		// that a regression in the hop or sync path shows up as a
		// missed verdict.
		TargetP50MS: 500,
		TargetP99MS: 2500,
	}
	sc := f.AddScenario("wirematmul-scaling", "wirematmul", "", ol.Rate)
	for _, n := range sizes {
		res, err := servePoint(n, workers, queue, ol)
		if err != nil {
			return fmt.Errorf("serve point %d-process: %w", n, err)
		}
		if res.Done == 0 {
			return fmt.Errorf("serve point %d-process: no job finished (%+v)", n, res)
		}
		fmt.Printf("%d daemons: %6.1f/s offered, %6.1f/s done  p50 %6.1fms  p99 %6.1fms  SLO %3.0f%%  (%d done, %d failed, %d evicted, %d rejected)\n",
			n, res.OfferedRate, res.Throughput, res.P50MS, res.P99MS, 100*res.SLOAttainment,
			res.Done, res.Failed, res.Evicted, res.Rejected)
		sc.AddPoint(n, res)
	}

	// The elastic experiment: 8 daemons take the batch, half of them
	// drain mid-run (live migration evacuates their agents), and the
	// acceptance bar is zero lost results on the 4 survivors.
	const elasticFrom, elasticTo = 8, 4
	eol := ol
	eol.Duration = 8 * time.Second
	if quick {
		eol.Duration = 4 * time.Second
	}
	eol.Request.Retries = 3
	eres, err := serveElasticPoint(elasticFrom, elasticTo, workers, queue, eol)
	if err != nil {
		return fmt.Errorf("elastic shrink %d->%d: %w", elasticFrom, elasticTo, err)
	}
	fmt.Printf("elastic %d->%d daemons mid-batch: %6.1f/s done  p50 %6.1fms  p99 %6.1fms  (%d done, %d failed, %d evicted — zero lost)\n",
		elasticFrom, elasticTo, eres.Throughput, eres.P50MS, eres.P99MS, eres.Done, eres.Failed, eres.Evicted)
	esc := f.AddScenario(fmt.Sprintf("elastic-shrink-%dto%d", elasticFrom, elasticTo), "wirematmul", "", eol.Rate)
	esc.AddPoint(elasticFrom, eres)

	path := filepath.Join(dir, "BENCH_sched.json")
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d scenarios)\n", path, len(f.Scenarios))
	return nil
}

func writeRegressFile(path string, f *bench.RegressFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(f.Results))
	return nil
}

func printComparison(t *bench.Table) {
	ref := bench.PaperReference(t.Name)
	if ref == nil {
		return
	}
	fmt.Printf("%s — paper's published values:\n", t.Name)
	for _, pr := range ref {
		var cells []string
		for _, col := range t.Columns {
			if e, ok := pr.Entries[col]; ok {
				cells = append(cells, fmt.Sprintf("%s %.2f (%.2f)", col, e.Seconds, e.Speedup))
			}
		}
		fmt.Printf("  N=%-5d seq %.2f | %s\n", pr.N, pr.SeqActual, strings.Join(cells, " | "))
	}
}

func runAblations(opt bench.Options) {
	type ab struct {
		title string
		run   func() ([]bench.AblationResult, error)
	}
	for _, a := range []ab{
		{"Pointer swapping vs local copies (Gentleman, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationPointerSwap(opt, 3072, 128, 3, 80e6)
		}},
		{"Communication/computation overlap (N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationOverlap(opt, 3072, 128, 3)
		}},
		{"Algorithmic block size (NavP 2D phase, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationBlockSize(opt, 3072, 3, []int{64, 128, 256, 512})
		}},
		{"Per-hop thread state (NavP 2D pipeline, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationStateBytes(opt, 3072, 128, 3, []int64{64, 256, 1024, 4096, 16384})
		}},
		{"Heterogeneous cluster: one PE 1.5× slower (N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationHeterogeneity(opt, 3072, 128, 3, 1.5)
		}},
	} {
		res, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.title, err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatAblation(a.title, res))
		fmt.Println()
	}
}
