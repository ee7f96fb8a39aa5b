package wire

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/matrix"
)

type benchState struct{ Remaining int }

func init() {
	RegisterState(&benchState{})
	Register("bench-ring", func(ctx *Ctx) Verdict {
		st := ctx.State().(*benchState)
		st.Remaining--
		if st.Remaining <= 0 {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

// BenchmarkWireHop measures one agent migration over loopback TCP,
// including gob encoding of the carried state.
func BenchmarkWireHop(b *testing.B) {
	cl, err := NewCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	cl.Inject(0, "bench-ring", &benchState{Remaining: b.N})
	if err := cl.Wait(5 * time.Minute); err != nil {
		b.Fatal(err)
	}
}

// benchBlockState is the data-path payload shape: a carried matrix
// block plus a little bookkeeping, like the distributed matmul agents.
type benchBlockState struct {
	Row int
	Blk *matrix.Block
}

func init() { RegisterState(&benchBlockState{}) }

func benchBlockStateN(n int) *benchBlockState {
	blk := matrix.NewBlock(0, 0, n, n)
	for i := range blk.Data {
		blk.Data[i] = float64(i%7) + 0.5
	}
	return &benchBlockState{Row: 3, Blk: blk}
}

// codecStates are the payloads the codec benchmarks sweep: control-size
// state and block-carrying states at two sizes.
func codecStates() []struct {
	name  string
	state any
} {
	return []struct {
		name  string
		state any
	}{
		{"small", &benchState{Remaining: 12}},
		{"block=" + strconv.Itoa(64), benchBlockStateN(64)},
		{"block=" + strconv.Itoa(256), benchBlockStateN(256)},
	}
}

// BenchmarkEncodeFrame measures the pooled frame encoder — the per-hop
// serialization cost, and a BENCH_wire.json regression gate — for a
// payload-free control frame and for agent frames.
func BenchmarkEncodeFrame(b *testing.B) {
	b.Run("control", func(b *testing.B) {
		n, err := BenchEncodeControlFrame()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BenchEncodeControlFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			n, err := BenchEncodeFrame(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BenchEncodeFrame(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrame measures the frame decoder over the same frames.
func BenchmarkDecodeFrame(b *testing.B) {
	control, err := BenchControlFrameBytes()
	if err != nil {
		b.Fatal(err)
	}
	benchDecode(b, "control", control)
	for _, c := range codecStates() {
		data, err := BenchFrameBytes(c.state)
		if err != nil {
			b.Fatal(err)
		}
		benchDecode(b, c.name, data)
	}
}

func benchDecode(b *testing.B, name string, data []byte) {
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := BenchDecodeFrame(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointState measures the hop-boundary checkpoint
// snapshot (encodeState) — paid on every accept, inject, and rehop.
func BenchmarkCheckpointState(b *testing.B) {
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			n, err := BenchEncodeState(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BenchEncodeState(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointStateDecode measures decoding a checkpoint
// snapshot — the payload share of an agent frame's decode.
func BenchmarkCheckpointStateDecode(b *testing.B) {
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			data, err := BenchStateBytes(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := BenchDecodeState(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireConcurrentAgents measures aggregate migration throughput
// with eight agents circulating at once.
func BenchmarkWireConcurrentAgents(b *testing.B) {
	cl, err := NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const agents = 8
	per := b.N/agents + 1
	b.ResetTimer()
	for i := 0; i < agents; i++ {
		cl.Inject(i%4, "bench-ring", &benchState{Remaining: per})
	}
	if err := cl.Wait(5 * time.Minute); err != nil {
		b.Fatal(err)
	}
}
