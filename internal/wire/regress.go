package wire

// Exported entry points for the BENCH_wire.json regression harness
// (internal/bench). The frame and checkpoint codecs are unexported by
// design — nothing outside this package should touch wire framing — so
// these thin wrappers expose exactly the operations the harness times:
// frame encode (pooled fast path), frame decode, and the checkpoint
// state snapshot both ways. They are also usable from external tests
// that need a wire-identical byte image of a frame. BenchSync exposes
// the node log's per-ack sync path the same way.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// benchEnvelope wraps state in the canonical agent envelope the codec
// benchmarks measure — the frame shape that dominates hop traffic.
func benchEnvelope(state any) *envelope {
	return &envelope{Kind: msgAgent, Agent: &agentMsg{
		ID: 7<<40 | 42, Hop: 3, Behavior: "bench", State: state,
	}}
}

// BenchEncodeFrame encodes one agent frame carrying state through the
// pooled fast path and releases it, returning the on-wire size.
func BenchEncodeFrame(state any) (int, error) {
	f, err := encodeFrame(benchEnvelope(state))
	if err != nil {
		return 0, err
	}
	n := f.size()
	f.release()
	return n, nil
}

// BenchFrameBytes returns a standalone copy of the encoded frame for
// state — input for BenchDecodeFrame and for golden-frame fixtures.
func BenchFrameBytes(state any) ([]byte, error) {
	f, err := encodeFrame(benchEnvelope(state))
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), f.bytes()...)
	f.release()
	return out, nil
}

// BenchDecodeFrame decodes one complete frame image.
func BenchDecodeFrame(data []byte) error {
	_, err := decodeFrame(data)
	return err
}

// BenchEncodeState snapshots v through the checkpoint codec (the
// per-hop encodeState call), returning the snapshot size.
func BenchEncodeState(v any) (int, error) {
	b, err := encodeState(v)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// BenchStateBytes returns the checkpoint snapshot of v.
func BenchStateBytes(v any) ([]byte, error) { return encodeState(v) }

// BenchDecodeState restores a checkpoint snapshot.
func BenchDecodeState(data []byte) error {
	_, err := decodeState(data)
	return err
}

// SyncBench is a persistent node for timing the per-ack persistence
// path: one hop-sized durable change followed by the sync that must
// precede its acknowledgement.
type SyncBench struct {
	ns   *nodeState
	next atomic.Uint64
}

// benchHopState is the carried state of a benchmark agent: the size of
// a wirematmul row carrier.
var benchHopState = make([]int64, 16)

// BenchSync opens a node log in dir (an empty directory) for a node
// holding each of resident as a node variable, with the default dedup
// window.
func BenchSync(dir string, resident []any) (*SyncBench, error) {
	ns := newNodeState(0, newWireMetrics(nil), Options{}.withDefaults().DedupRetain, newCancelSet())
	if _, err := openNodeLog(dir, ns); err != nil {
		return nil, err
	}
	for i, v := range resident {
		ns.vars.set(fmt.Sprintf("resident.%d", i), v)
	}
	if err := ns.sync(); err != nil {
		ns.persist.close()
		return nil, err
	}
	return &SyncBench{ns: ns}, nil
}

// Run performs n syncs shared among callers goroutines and returns the
// first error. Each goroutine alternately accepts a fresh agent and
// completes it — the two ends of a hop's stay — syncing after each.
func (b *SyncBench) Run(n, callers int) error {
	var left atomic.Int64
	left.Store(int64(n))
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id uint64
			for left.Add(-1) >= 0 {
				if id == 0 {
					id = b.next.Add(1)
					if _, _, err := b.ns.accept(&agentMsg{ID: id, Hop: 1, Job: 1, Behavior: "bench", State: benchHopState}); err != nil {
						errs <- err
						return
					}
				} else {
					b.ns.complete(id, 1)
					id = 0
				}
				if err := b.ns.sync(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Close closes the node log.
func (b *SyncBench) Close() { b.ns.persist.close() }
