package wire

// Exported entry points for the BENCH_wire.json regression harness
// (internal/bench). The frame and checkpoint codecs are unexported by
// design — nothing outside this package should touch wire framing — so
// these thin wrappers expose exactly the operations the harness times:
// frame encode (pooled fast path) and decode for an agent frame and a
// payload-free control frame, and the checkpoint state snapshot both
// ways. They are also usable from external tests that need a
// wire-identical byte image of a frame. BenchSync exposes the node
// log's per-ack sync path the same way.

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
func BenchEncodeFrame(state any) (int, error) { return frameSize(benchEnvelope(state)) }

// BenchFrameBytes returns a standalone copy of the encoded frame for
// state — input for BenchDecodeFrame and for golden-frame fixtures.
func BenchFrameBytes(state any) ([]byte, error) { return frameCopy(benchEnvelope(state)) }

// BenchDecodeFrame decodes one complete frame image, payload included.
func BenchDecodeFrame(data []byte) error {
	_, err := decodeFrame(data)
	return err
}

// benchControl is the canonical payload-free frame: a daemon's per-job
// counters reply, the frame termination polling sends most.
var benchControl = &envelope{Kind: msgCounters, Job: 1<<32 | 77,
	Counters: counters{Created: 16, Finished: 9, Sent: 140, Received: 133}}

// BenchEncodeControlFrame encodes the canonical payload-free frame and
// releases it, returning the on-wire size.
func BenchEncodeControlFrame() (int, error) { return frameSize(benchControl) }

// BenchControlFrameBytes returns a standalone copy of the canonical
// payload-free frame — input for BenchDecodeFrame.
func BenchControlFrameBytes() ([]byte, error) { return frameCopy(benchControl) }

// frameSize encodes env through the pooled path, releases the frame and
// returns its on-wire size.
func frameSize(env *envelope) (int, error) {
	f, err := encodeFrame(env)
	if err != nil {
		return 0, err
	}
	n := f.size()
	f.release()
	return n, nil
}

// frameCopy returns a standalone copy of env's encoded frame.
func frameCopy(env *envelope) ([]byte, error) {
	f, err := encodeFrame(env)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), f.bytes()...)
	f.release()
	return out, nil
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
	enc  []byte // benchHopState's encoding, as a decoded frame carries it
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
	enc, err := encodeState(benchHopState)
	if err != nil {
		ns.persist.close()
		return nil, err
	}
	return &SyncBench{ns: ns, enc: enc}, nil
}

// Run performs n syncs shared among callers goroutines and returns the
// first error. Each goroutine alternately accepts a fresh agent and
// completes it — the two ends of a hop's stay — syncing after each. The
// accepted agent carries its state's bytes, as one off the wire does,
// so the accept checkpoints them without encoding.
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
					if _, _, err := b.ns.accept(&agentMsg{ID: id, Hop: 1, Job: 1, Behavior: "bench", State: benchHopState, enc: b.enc}); err != nil {
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
