package bench

import (
	"strings"
	"testing"
)

// gateFile builds a synthetic kernels RegressFile for gate tests.
func gateFile(numCPU int, kernel string, results []RegressResult) *RegressFile {
	return &RegressFile{
		Schema: 2, Suite: "kernels", NumCPU: numCPU, Kernel: kernel,
		Results: results,
	}
}

func hasViolation(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

// TestGatesPassOnHealthyFile pins that a file meeting every floor is
// green: 3×+ kernel speedup, asm floor held, clean thread scaling.
func TestGatesPassOnHealthyFile(t *testing.T) {
	f := gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 52.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 95.0},
		{Name: "BenchmarkKernelMulThreads/t=8", GFlops: 150.0},
	})
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("healthy file violated gates: %v", errs)
	}
}

// TestGatesCatchRegressions pins each gate individually.
func TestGatesCatchRegressions(t *testing.T) {
	// Kernel barely faster than naive: speedup floor.
	f := gateFile(1, "go-4x4", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 4.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 4.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 3.0x floor") {
		t.Fatalf("2x speedup passed the 3x gate: %v", errs)
	}

	// Asm dispatched but throughput under the absolute floor.
	f = gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 10.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 10.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 22.2 floor") {
		t.Fatalf("10 GFLOP/s asm run passed the floor gate: %v", errs)
	}

	// A threaded point within NumCPU slower than t=1 must FAIL the run,
	// not merely be recorded.
	f = gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 20.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 95.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "may not be slower than single-threaded") {
		t.Fatalf("slower t=2 within NumCPU passed: %v", errs)
	}

	// t=4 under 2.5× on a host that can express it.
	f = gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 50.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 2.5x scaling floor") {
		t.Fatalf("1.8x t=4 passed the 2.5x gate on an 8-CPU host: %v", errs)
	}

	// Oversubscribed points (t > NumCPU) face the overhead bound, not
	// the scaling gate — 0.9x t=1 passes, 0.5x fails.
	f = gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 25.0},
	})
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("0.9x oversubscribed point failed on a 1-CPU host: %v", errs)
	}
	f.Results[3].GFlops = 14.0
	if errs := f.CheckGates(); !hasViolation(errs, "overhead bound") {
		t.Fatalf("0.5x oversubscribed point passed the overhead bound: %v", errs)
	}
}

// TestGatesQuickMode pins the loosened CI-smoke thresholds.
func TestGatesQuickMode(t *testing.T) {
	f := gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=128", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=128", GFlops: 3.0}, // 1.5x: fails full, passes quick
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 3.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 1.8}, // 0.6x: passes quick overhead
	})
	f.Quick = true
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("quick file failed loosened gates: %v", errs)
	}
	// The asm absolute floor is full-mode only (n=128 cannot reach it).
	f.Quick = false
	if errs := f.CheckGates(); !hasViolation(errs, "below the 3.0x floor") {
		t.Fatalf("full-mode thresholds not applied after clearing Quick: %v", errs)
	}
}

// TestGatesIgnoreNonKernelSuites pins that the kernel gates apply to
// kernels files only: a wire file faces its own sync gate alone.
func TestGatesIgnoreNonKernelSuites(t *testing.T) {
	f := &RegressFile{Schema: 2, Suite: "wire", Results: append(codecRows(), []RegressResult{
		{Name: "BenchmarkSync/resident=0", NsPerOp: 9000},
		{Name: "BenchmarkSync/resident=64", NsPerOp: 9500},
	}...)}
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("wire suite hit kernel gates: %v", errs)
	}
	if errs := (&RegressFile{Schema: 2, Suite: "sched"}).CheckGates(); len(errs) != 0 {
		t.Fatalf("ungated suite reported violations: %v", errs)
	}
}

// TestSyncGate pins the wire suite's gate: a per-ack sync may not grow
// with resident state beyond 2x, and a file without the pair fails.
func TestSyncGate(t *testing.T) {
	f := &RegressFile{Schema: 2, Suite: "wire", Results: []RegressResult{
		{Name: "BenchmarkSync/resident=0", NsPerOp: 9000},
		{Name: "BenchmarkSync/resident=64", NsPerOp: 450000},
	}}
	f.Results = append(f.Results, codecRows()...)
	if errs := f.CheckGates(); !hasViolation(errs, "above the 2.0x bound") {
		t.Fatalf("50x sync growth passed the gate: %v", errs)
	}
	f.Results = f.Results[:1]
	if errs := f.CheckGates(); !hasViolation(errs, "no BenchmarkSync") {
		t.Fatalf("missing resident=64 row passed the gate: %v", errs)
	}
}

// codecRows is a passing set of frame-codec rows.
func codecRows() []RegressResult {
	return []RegressResult{
		{Name: "BenchmarkDecodeFrame/control", NsPerOp: 150, AllocsPerOp: 1},
		{Name: "BenchmarkDecodeFrame/small", NsPerOp: 20000, AllocsPerOp: 190},
		{Name: "BenchmarkCheckpointStateDecode/small", NsPerOp: 18000, AllocsPerOp: 186},
		{Name: "BenchmarkDecodeFrame/block=64", NsPerOp: 40000, AllocsPerOp: 200},
		{Name: "BenchmarkCheckpointStateDecode/block=64", NsPerOp: 38000, AllocsPerOp: 196},
	}
}

// TestCodecGates pins the frame-codec gates: control-frame decode
// allocations, agent-frame allocations over their state's, the
// control/agent ns ratio (full runs only), and missing rows.
func TestCodecGates(t *testing.T) {
	wireFile := func(quick bool, edit func(rows []RegressResult)) *RegressFile {
		f := &RegressFile{Schema: 2, Suite: "wire", Quick: quick, Results: append(codecRows(),
			RegressResult{Name: "BenchmarkSync/resident=0", NsPerOp: 9000},
			RegressResult{Name: "BenchmarkSync/resident=64", NsPerOp: 9500})}
		edit(f.Results)
		return f
	}
	cases := []struct {
		name  string
		quick bool
		edit  func(rows []RegressResult)
		want  string
	}{
		{"control allocs", true, func(rows []RegressResult) { rows[0].AllocsPerOp = 5 }, "above the 4 bound"},
		{"agent allocs", true, func(rows []RegressResult) { rows[3].AllocsPerOp = 205 }, "above its state's 196 + 8"},
		{"ns ratio", false, func(rows []RegressResult) { rows[0].NsPerOp = 2500 }, "above 1/10 of the small agent frame's"},
		{"missing state row", true, func(rows []RegressResult) { rows[4].Name = "BenchmarkOther" }, "no BenchmarkCheckpointStateDecode/block=64"},
		{"missing control row", true, func(rows []RegressResult) { rows[0].Name = "BenchmarkOther" }, "no BenchmarkDecodeFrame/control"},
	}
	for _, c := range cases {
		if errs := wireFile(c.quick, c.edit).CheckGates(); !hasViolation(errs, c.want) {
			t.Errorf("%s: violations %v, want one containing %q", c.name, errs, c.want)
		}
	}
	// The ns ratio is a full-run gate: quick runs time one iteration.
	if errs := wireFile(true, func(rows []RegressResult) { rows[0].NsPerOp = 2500 }).CheckGates(); len(errs) != 0 {
		t.Fatalf("quick run hit the ns gate: %v", errs)
	}
}
