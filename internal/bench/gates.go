package bench

// Regression gates over a freshly measured kernels RegressFile. The
// harness FAILS (paperbench -regress exits non-zero) when a gate is
// violated — recording a regression is not enough, the run itself must
// go red. The thresholds encode the issue's acceptance floors:
//
//   - the packed kernel must hold ≥3× the naive baseline (the original
//     roofline gap this repo's compute path exists to close);
//   - the assembly path, when dispatched, must hold ≥22.2 GFLOP/s at
//     n=1024 (3× the 7.4 GFLOP/s the pure-Go kernel measured when the
//     gate was set);
//   - threading must help where the host can express it: with ≥4 CPUs,
//     t=4 must reach ≥2.5× t=1, and any t within NumCPU may not be
//     slower than single-threaded (beyond NumCPU the points measure
//     scheduling overhead and are held to a bounded cost instead).
//
// The wire suite's gates:
//
//   - a per-ack sync on a node holding 64 resident 64×64 blocks may cost
//     at most gateSyncGrowth times one on an empty node — the node log
//     writes what changed, never the resident state;
//   - decoding a payload-free control frame may make at most
//     gateControlAllocs allocations, and decoding an agent frame at most
//     gateFrameAllocs more than decoding its state alone — the envelope
//     is a fixed binary layout, not a reflection walk. Allocation counts
//     are deterministic, so these hold in quick runs too;
//   - a control-frame decode may cost at most 1/gateControlSpeedup of a
//     small agent-frame decode (full runs only).
//
// Quick (CI smoke) runs use loosened thresholds: at n=128 the kernel's
// cache blocking barely engages and thread overhead dominates, so the
// quick gates only catch catastrophic breakage, not drift.

import (
	"fmt"
	"runtime"
	"strings"
)

const (
	// gateKernelSpeedup is the kernel-vs-naive GFLOP/s floor (full runs).
	gateKernelSpeedup = 3.0
	// gateQuickSpeedup is the loosened floor for -quick smoke runs.
	gateQuickSpeedup = 1.2
	// gateASMFloorGF is the absolute GFLOP/s floor at n=1024 when the
	// assembly micro-kernel is the dispatched variant.
	gateASMFloorGF = 22.2
	// gateThreadScale is the required t=4 over t=1 ratio on hosts with
	// at least 4 CPUs.
	gateThreadScale = 2.5
	// gateNotSlower tolerates measurement noise on the "a threaded
	// point within NumCPU may not be slower than t=1" gate.
	gateNotSlower = 0.95
	// gateOverhead bounds the cost of oversubscription: points with
	// t > NumCPU must keep at least this fraction of t=1 throughput.
	// On a 1-CPU host the whole curve measures scheduler overhead and
	// run-to-run noise sits within a few percent, so the bound leaves
	// headroom below the ~0.8x such hosts typically measure.
	gateOverhead = 0.75
	// gateQuickOverhead is the loosened oversubscription bound for
	// -quick runs (n=128, where per-panel overhead is proportionally
	// large).
	gateQuickOverhead = 0.50
	// gateSyncGrowth bounds BenchmarkSync/resident=64 over resident=0.
	gateSyncGrowth = 2.0
	// gateControlAllocs bounds BenchmarkDecodeFrame/control allocations.
	gateControlAllocs = 4
	// gateFrameAllocs bounds an agent frame's decode allocations beyond
	// those of decoding its state (BenchmarkCheckpointStateDecode).
	gateFrameAllocs = 8
	// gateControlSpeedup is the required ns/op ratio of a small agent
	// frame's decode over a control frame's.
	gateControlSpeedup = 10.0
)

// CheckGates evaluates every regression gate of the file's suite and
// returns the violations (empty means the run passes).
func (f *RegressFile) CheckGates() []error {
	switch f.Suite {
	case "wire":
		return append(f.checkSyncGate(), f.checkCodecGates()...)
	case "kernels":
	default:
		return nil
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}

	floor := gateKernelSpeedup
	if f.Quick {
		floor = gateQuickSpeedup
	}
	if n, ratio, err := f.KernelSpeedup(); err != nil {
		fail("kernel speedup unmeasurable: %v", err)
	} else if ratio < floor {
		fail("kernel vs naive at n=%d is %.2fx, below the %.1fx floor", n, ratio, floor)
	}

	if !f.Quick && strings.HasPrefix(f.Kernel, "avx2") {
		r := f.Find("BenchmarkKernelMul/n=1024")
		if r == nil {
			fail("asm kernel dispatched but no n=1024 measurement recorded")
		} else if r.GFlops < gateASMFloorGF {
			fail("asm kernel at n=1024 is %.2f GFLOP/s, below the %.1f floor", r.GFlops, gateASMFloorGF)
		}
	}

	errs = append(errs, f.checkThreadGates()...)
	return errs
}

// checkThreadGates applies the thread-scaling gates to whatever
// BenchmarkKernelMulThreads points the file recorded. The host's CPU
// count decides which gate each point faces: real scaling within
// NumCPU, bounded overhead beyond it. runtime.NumCPU() at check time
// matches f.NumCPU because the gates run in the same process as the
// measurement (paperbench -regress).
func (f *RegressFile) checkThreadGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	t1 := f.Find("BenchmarkKernelMulThreads/t=1")
	if t1 == nil || t1.GFlops == 0 {
		if f.Quick {
			return nil // quick files before schema 2 had no t=1 point
		}
		fail("no single-threaded KernelMulThreads baseline recorded")
		return errs
	}
	ncpu := f.NumCPU
	if ncpu == 0 {
		ncpu = runtime.NumCPU()
	}
	notSlower, overhead := gateNotSlower, gateOverhead
	if f.Quick {
		notSlower, overhead = gateQuickOverhead, gateQuickOverhead
	}
	for _, r := range f.Results {
		var t int
		if _, err := fmt.Sscanf(r.Name, "BenchmarkKernelMulThreads/t=%d", &t); err != nil || t <= 1 {
			continue
		}
		ratio := r.GFlops / t1.GFlops
		switch {
		case t <= ncpu && ratio < notSlower:
			fail("t=%d is %.2fx t=1 — a threaded point within NumCPU=%d may not be slower than single-threaded", t, ratio, ncpu)
		case t > ncpu && ratio < overhead:
			fail("t=%d (oversubscribed, NumCPU=%d) is %.2fx t=1, below the %.2fx overhead bound", t, ncpu, ratio, overhead)
		}
		if !f.Quick && t == 4 && ncpu >= 4 && ratio < gateThreadScale {
			fail("t=4 is %.2fx t=1 on a %d-CPU host, below the %.1fx scaling floor", ratio, ncpu, gateThreadScale)
		}
	}
	return errs
}

// checkSyncGate holds the per-ack sync cost flat in resident state.
func (f *RegressFile) checkSyncGate() []error {
	empty, full := f.Find("BenchmarkSync/resident=0"), f.Find("BenchmarkSync/resident=64")
	if empty == nil || full == nil || empty.NsPerOp == 0 {
		return []error{fmt.Errorf("gate: no BenchmarkSync resident=0/64 pair recorded")}
	}
	if ratio := full.NsPerOp / empty.NsPerOp; ratio > gateSyncGrowth {
		return []error{fmt.Errorf("gate: a sync with 64 resident blocks costs %.2fx one with none, above the %.1fx bound", ratio, gateSyncGrowth)}
	}
	return nil
}

// checkCodecGates holds the frame envelope's decode cost to its fixed
// layout: control frames near-free, agent frames no dearer than their
// payload plus a constant.
func (f *RegressFile) checkCodecGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	control := f.Find("BenchmarkDecodeFrame/control")
	if control == nil {
		return []error{fmt.Errorf("gate: no BenchmarkDecodeFrame/control row recorded")}
	}
	if control.AllocsPerOp > gateControlAllocs {
		fail("a control-frame decode makes %d allocations, above the %d bound", control.AllocsPerOp, gateControlAllocs)
	}
	cases := 0
	for _, r := range f.Results {
		c, ok := strings.CutPrefix(r.Name, "BenchmarkDecodeFrame/")
		if !ok || c == "control" {
			continue
		}
		state := f.Find("BenchmarkCheckpointStateDecode/" + c)
		if state == nil {
			fail("no BenchmarkCheckpointStateDecode/%s row to bound BenchmarkDecodeFrame/%s", c, c)
			continue
		}
		cases++
		if r.AllocsPerOp > state.AllocsPerOp+gateFrameAllocs {
			fail("decoding the %s agent frame makes %d allocations, above its state's %d + %d", c, r.AllocsPerOp, state.AllocsPerOp, gateFrameAllocs)
		}
	}
	if cases == 0 {
		fail("no agent-frame decode rows recorded")
	}
	if f.Quick {
		return errs
	}
	switch small := f.Find("BenchmarkDecodeFrame/small"); {
	case small == nil:
		fail("no BenchmarkDecodeFrame/small row to compare the control frame with")
	case control.NsPerOp*gateControlSpeedup > small.NsPerOp:
		fail("a control-frame decode costs %.0f ns, above 1/%.0f of the small agent frame's %.0f ns", control.NsPerOp, gateControlSpeedup, small.NsPerOp)
	}
	return errs
}
