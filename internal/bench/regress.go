package bench

// The BENCH_*.json regression harness: real measured microbenchmarks of
// the two fast data paths (the packed GEMM kernel, the wire frame
// codec), rendered as machine-readable JSON so CI and later sessions
// can diff performance against the recorded numbers at the repo root.
//
// All wall-clock timing happens inside testing.Benchmark — this file
// itself stays simsafe (no direct clock reads), and the measurements
// are explicitly host-dependent: the files record Go version, OS/arch,
// and GOMAXPROCS alongside every number.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// RegressResult is one benchmark measurement.
type RegressResult struct {
	// Name matches the corresponding go-test benchmark, e.g.
	// "BenchmarkKernelMul/n=1024", so `go test -bench` output and the
	// JSON file line up.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	GFlops      float64 `json:"gflops,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	OpsPerSec   float64 `json:"ops_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// RegressFile is the schema of BENCH_kernels.json and BENCH_wire.json.
// Schema 2 adds the host identity block (CPU model, ISA features,
// NumCPU) and the kernel dispatch state (active variant, blocking
// parameters and whether they came from the autotune cache), so a
// recorded number can always be traced to the hardware and kernel that
// produced it.
type RegressFile struct {
	Schema      int             `json:"schema"`
	Suite       string          `json:"suite"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	CPUModel    string          `json:"cpu_model"`
	CPUFeatures []string        `json:"cpu_features,omitempty"`
	Kernel      string          `json:"kernel,omitempty"`
	BlockMC     int             `json:"block_mc,omitempty"`
	BlockKC     int             `json:"block_kc,omitempty"`
	BlockNC     int             `json:"block_nc,omitempty"`
	BlockSource string          `json:"block_source,omitempty"`
	Quick       bool            `json:"quick"`
	Results     []RegressResult `json:"results"`
}

func newRegressFile(suite string, quick bool) *RegressFile {
	f := &RegressFile{
		Schema: 2, Suite: suite,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: matrix.CPUModel(), CPUFeatures: matrix.CPUFeatures(),
		Quick: quick,
	}
	if suite == "kernels" {
		f.Kernel = matrix.ActiveKernel()
		f.BlockMC, f.BlockKC, f.BlockNC, f.BlockSource = matrix.ActiveBlocking()
	}
	return f
}

// sinkDense defeats dead-code elimination of benchmark results.
var sinkDense *matrix.Dense

// benchmarked runs body under testing.Benchmark and fills the common
// counters.
func benchmarked(name string, body func(b *testing.B)) RegressResult {
	r := testing.Benchmark(body)
	return RegressResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func withGflops(res RegressResult, n int) RegressResult {
	flops := 2 * float64(n) * float64(n) * float64(n)
	if res.NsPerOp > 0 {
		res.GFlops = flops / res.NsPerOp
	}
	return res
}

func withMBPerSec(res RegressResult, bytes int) RegressResult {
	if res.NsPerOp > 0 {
		res.MBPerSec = float64(bytes) / res.NsPerOp * 1e9 / 1e6
	}
	return res
}

// regressThreadCounts is the measured thread curve: 1, 2, 4 always
// (the gated points), then powers of two up to NumCPU and NumCPU
// itself, so the file records the full scaling curve this host can
// express. Points beyond NumCPU still run — they measure scheduling
// overhead, and the gate holds them to a bounded cost rather than a
// speedup.
func regressThreadCounts() []int {
	ts := []int{1, 2, 4}
	for p := 8; p <= runtime.NumCPU(); p *= 2 {
		ts = append(ts, p)
	}
	if n := runtime.NumCPU(); n > 4 && ts[len(ts)-1] != n {
		ts = append(ts, n)
	}
	return ts
}

// regressPair returns a deterministic n×n multiplicand pair (same seed
// as the go-test benchmarks).
func regressPair(n int) (x, y *matrix.Dense) {
	rng := rand.New(rand.NewSource(2))
	x, y = matrix.NewDense(n, n), matrix.NewDense(n, n)
	x.FillRandom(rng)
	y.FillRandom(rng)
	return x, y
}

// RegressKernels measures the GEMM data path: the paper's Figure 2
// i-j-k baseline, the i-k-j saxpy intermediate, the packed kernel, the
// worker-pool variants, and the Block MulAdd hot path. Quick mode
// shrinks the problem sizes for CI smoke runs; full mode includes the
// gated n=1024 pair.
func RegressKernels(quick bool) *RegressFile {
	f := newRegressFile("kernels", quick)
	sizes := []int{256, 512, 1024}
	if quick {
		sizes = []int{64, 128}
	}
	type mulCase struct {
		name string
		mul  func(a, b *matrix.Dense) *matrix.Dense
	}
	for _, c := range []mulCase{
		{"BenchmarkNaiveMul", matrix.MulNaive},
		{"BenchmarkSaxpyMul", matrix.MulSaxpy},
		{"BenchmarkKernelMul", func(a, b *matrix.Dense) *matrix.Dense { return matrix.Kernel{}.Mul(a, b) }},
	} {
		for _, n := range sizes {
			x, y := regressPair(n)
			res := benchmarked(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkDense = c.mul(x, y)
				}
			})
			f.Results = append(f.Results, withGflops(res, n))
		}
	}
	threadN := 1024
	threads := regressThreadCounts()
	if quick {
		threadN, threads = 128, []int{1, 2}
	}
	for _, t := range threads {
		t := t
		x, y := regressPair(threadN)
		res := benchmarked(fmt.Sprintf("BenchmarkKernelMulThreads/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDense = matrix.Kernel{Threads: t}.Mul(x, y)
			}
		})
		f.Results = append(f.Results, withGflops(res, threadN))
	}
	bs := 128
	if quick {
		bs = 64
	}
	rng := rand.New(rand.NewSource(1))
	ab, bb, cb := matrix.NewBlock(0, 0, bs, bs), matrix.NewBlock(0, 1, bs, bs), matrix.NewBlock(0, 0, bs, bs)
	for i := range ab.Data {
		ab.Data[i], bb.Data[i] = rng.Float64(), rng.Float64()
	}
	res := benchmarked(fmt.Sprintf("BenchmarkBlockMulAdd/bs=%d", bs), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.MulAdd(cb, ab, bb)
		}
	})
	f.Results = append(f.Results, withGflops(res, bs))
	return f
}

// regressBlockState is the data-path payload the wire codec suite
// ships: a carried matrix block plus bookkeeping, like the distributed
// matmul agents.
type regressBlockState struct {
	Row int
	Blk *matrix.Block
}

// regressSmallState mirrors control-plane traffic.
type regressSmallState struct{ Remaining int }

func init() {
	wire.RegisterState(&regressBlockState{})
	wire.RegisterState(&regressSmallState{})
}

func regressBlockStateN(n int) *regressBlockState {
	blk := matrix.NewBlock(0, 0, n, n)
	for i := range blk.Data {
		blk.Data[i] = float64(i%7) + 0.5
	}
	return &regressBlockState{Row: 3, Blk: blk}
}

// RegressWire measures the wire data path: frame encode (the pooled
// zero-copy fast path) and frame decode for a payload-free control frame
// and for agent frames, and the hop-boundary checkpoint snapshot both
// ways, over a control-size state and block-carrying states.
func RegressWire(quick bool) (*RegressFile, error) {
	f := newRegressFile("wire", quick)
	size, err := wire.BenchEncodeControlFrame()
	if err != nil {
		return nil, fmt.Errorf("bench: encode control: %w", err)
	}
	res := benchmarked("BenchmarkEncodeFrame/control", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.BenchEncodeControlFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, withMBPerSec(res, size))
	control, err := wire.BenchControlFrameBytes()
	if err != nil {
		return nil, fmt.Errorf("bench: control frame bytes: %w", err)
	}
	res = benchmarked("BenchmarkDecodeFrame/control", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := wire.BenchDecodeFrame(control); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, withMBPerSec(res, len(control)))

	cases := []struct {
		name  string
		state any
	}{
		{"small", &regressSmallState{Remaining: 12}},
		{"block=64", regressBlockStateN(64)},
		{"block=256", regressBlockStateN(256)},
	}
	if quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		c := c
		size, err := wire.BenchEncodeFrame(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: encode %s: %w", c.name, err)
		}
		res := benchmarked("BenchmarkEncodeFrame/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.BenchEncodeFrame(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, size))

		data, err := wire.BenchFrameBytes(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: frame bytes %s: %w", c.name, err)
		}
		res = benchmarked("BenchmarkDecodeFrame/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := wire.BenchDecodeFrame(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, len(data)))

		snap, err := wire.BenchEncodeState(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: state %s: %w", c.name, err)
		}
		res = benchmarked("BenchmarkCheckpointState/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.BenchEncodeState(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, snap))

		state, err := wire.BenchStateBytes(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: state bytes %s: %w", c.name, err)
		}
		res = benchmarked("BenchmarkCheckpointStateDecode/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := wire.BenchDecodeState(state); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, len(state)))
	}
	return regressSync(f, quick)
}

// regressSync measures the node log's per-ack path — one hop-sized
// durable change and its sync — with 0/4/16/64 resident 64×64 blocks
// held as node variables (the cost must not grow with resident state),
// and sync throughput with 1 and 8 concurrent callers (group commit
// shares one write among concurrent syncs). Each measurement runs
// against a fresh node log in a temporary directory.
func regressSync(f *RegressFile, quick bool) (*RegressFile, error) {
	residents := []int{0, 4, 16, 64}
	if quick {
		residents = []int{0, 64}
	}
	for _, k := range residents {
		res, err := syncBenchmark(fmt.Sprintf("BenchmarkSync/resident=%d", k), k, 1)
		if err != nil {
			return nil, err
		}
		f.Results = append(f.Results, res)
	}
	for _, callers := range []int{1, 8} {
		res, err := syncBenchmark(fmt.Sprintf("BenchmarkSyncCallers/callers=%d", callers), 0, callers)
		if err != nil {
			return nil, err
		}
		f.Results = append(f.Results, res)
	}
	return f, nil
}

// syncBenchmark times b.N syncs shared among callers goroutines on a
// node holding resident 64×64 blocks; ns/op is wall time per sync.
func syncBenchmark(name string, resident, callers int) (RegressResult, error) {
	blocks := make([]any, resident)
	for i := range blocks {
		blocks[i] = regressBlockStateN(64)
	}
	var runErr error
	res := benchmarked(name, func(b *testing.B) {
		dir, err := os.MkdirTemp("", "navp-sync-bench-")
		if err != nil {
			runErr = err
			return
		}
		defer os.RemoveAll(dir)
		sb, err := wire.BenchSync(dir, blocks)
		if err != nil {
			runErr = err
			return
		}
		defer sb.Close()
		b.ResetTimer()
		if err := sb.Run(b.N, callers); err != nil {
			runErr = err
		}
		b.StopTimer()
	})
	if runErr != nil {
		return res, fmt.Errorf("bench: %s: %w", name, runErr)
	}
	if res.NsPerOp > 0 {
		res.OpsPerSec = 1e9 / res.NsPerOp
	}
	return res, nil
}

// Find returns the named result, or nil.
func (f *RegressFile) Find(name string) *RegressResult {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// KernelSpeedup reports the packed kernel's GFLOP/s ratio over the
// recorded naive baseline at the largest measured size — the number the
// regression gate watches (the issue's acceptance floor is 3×).
func (f *RegressFile) KernelSpeedup() (size int, ratio float64, err error) {
	for _, n := range []int{1024, 512, 256, 128, 64} {
		kernel := f.Find(fmt.Sprintf("BenchmarkKernelMul/n=%d", n))
		naive := f.Find(fmt.Sprintf("BenchmarkNaiveMul/n=%d", n))
		if kernel == nil || naive == nil || naive.GFlops == 0 {
			continue
		}
		return n, kernel.GFlops / naive.GFlops, nil
	}
	return 0, 0, fmt.Errorf("bench: no kernel/naive pair in %s suite", f.Suite)
}
