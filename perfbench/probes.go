package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// carrierState has the shape of a serving job's row carrier (one row of
// A riding a ring of PEs), the state almost every serving hop ships.
type carrierState struct {
	Row     int
	Vals    []int64
	Visited int
	Ring    []int
}

func init() { wire.RegisterState(&carrierState{}) }

// Probe sizes.
const (
	codecCalls  = 2000 // calls per timed batch of a codec probe
	codecBlocks = 7    // batches; the metric is the median batch
	gemmBS      = 256  // the block size of paper-phase1d
	gemmCalls   = 8
	gemmBatches = 7
)

// timePerCall returns the median over batches of the mean duration of
// one call to f, in microseconds.
func timePerCall(batches, calls int, f func() error) (float64, error) {
	var per []float64
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < calls; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t))/float64(time.Microsecond)/float64(calls))
	}
	return median(per), nil
}

// allocsPerCall is the whole number of heap allocations one call to f
// makes, averaged over calls as testing.AllocsPerRun does.
func allocsPerCall(calls int, f func() error) (float64, error) {
	var a, b runtime.MemStats
	if err := f(); err != nil { // warm any lazily built codec state
		return 0, err
	}
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(calls)), nil
}

// putCodecProbe times the wire frame codec on a carrier-shaped state of
// the serving order and PE count.
func putCodecProbe(res *result) error {
	pes := daemonCount()
	st := &carrierState{Row: 3, Vals: make([]int64, serveN), Ring: make([]int, pes)}
	for i := range st.Vals {
		st.Vals[i] = int64(i%19 - 9)
	}
	for i := range st.Ring {
		st.Ring[i] = i
	}
	size, err := wire.BenchEncodeFrame(st)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	frame, err := wire.BenchFrameBytes(st)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	enc, err := timePerCall(codecBlocks, codecCalls, func() error { _, err := wire.BenchEncodeFrame(st); return err })
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	decode := func() error { return wire.BenchDecodeFrame(frame) }
	dec, err := timePerCall(codecBlocks, codecCalls, decode)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	allocs, err := allocsPerCall(codecCalls, decode)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	state, err := timePerCall(codecBlocks, codecCalls, func() error { _, err := wire.BenchEncodeState(st); return err })
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	res.put("wire.frame_encode_us", enc, "us")
	res.put("wire.frame_decode_us", dec, "us")
	res.put("wire.frame_bytes", float64(size), "B")
	res.put("wire.frame_decode_allocs", allocs, "count")
	res.put("wire.state_encode_us", state, "us")
	return nil
}

// blockRate measures single-thread Block.MulAdd at gemmBS, in flop/s
// (median batch).
func blockRate() float64 {
	rng := rand.New(rand.NewSource(1))
	a, b, c := matrix.NewBlock(0, 0, gemmBS, gemmBS), matrix.NewBlock(0, 1, gemmBS, gemmBS), matrix.NewBlock(0, 1, gemmBS, gemmBS)
	for i := range a.Data {
		a.Data[i], b.Data[i] = rng.Float64(), rng.Float64()
	}
	matrix.MulAdd(c, a, b) // warm: page in the packing buffers
	flops := 2.0 * gemmBS * gemmBS * gemmBS * gemmCalls
	var rates []float64
	for k := 0; k < gemmBatches; k++ {
		t := time.Now()
		for i := 0; i < gemmCalls; i++ {
			matrix.MulAdd(c, a, b)
		}
		rates = append(rates, flops/time.Since(t).Seconds())
	}
	return median(rates)
}

// sequentialSeconds runs the paper's Sequential stage at the
// paper-phase1d size and returns its wall time and product.
func sequentialSeconds(seed int64) (float64, *matrix.Dense, error) {
	t := time.Now()
	r, err := matmul.Run(matmul.Sequential, matmul.Config{N: phaseN, BS: phaseBS, P: 1, Real: true, Seed: seed})
	if err != nil {
		return 0, nil, fmt.Errorf("sequential reference: %w", err)
	}
	return time.Since(t).Seconds(), r.C, nil
}

// putProbes adds the layer probes every traced run reports: the codec,
// the GEMM block rate, which it returns in flop/s, and, when seq is set,
// one Sequential run.
func putProbes(res *result, seq bool) (float64, error) {
	if err := putCodecProbe(res); err != nil {
		return 0, err
	}
	rate := blockRate()
	res.put("matrix.block_gflops", rate/1e9, "GFLOP/s")
	if seq {
		s, _, err := sequentialSeconds(1)
		if err != nil {
			return 0, err
		}
		res.put("matrix.seq_s", s, "s")
	}
	return rate, nil
}
