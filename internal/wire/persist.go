package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Node-state persistence for multi-host daemons.
//
// An in-process Cluster keeps every node's durable state (nodeState) in
// the coordinator's memory, so an injected daemon kill loses nothing. A
// real per-host daemon process has no such refuge: kill -9 takes the
// address space with it. The node log is the node's "local disk" from
// the MESSENGERS architecture: one append-only file per node holding
// the records of every durable change (counters, dedup table,
// checkpoint store, node variables, cancellation marks, migration and
// drain state; see logrec.go). A respawned daemon process replays it
// and re-injects the checkpointed agents, exactly as the in-process
// monitor replays them after an injected kill.
//
// Ordering is what makes this correct rather than best-effort: a daemon
// syncs *before* externalizing the effect of a mutation — before the
// hop acknowledgement leaves for an accepted agent, before the msgOK
// reply to a control write. A crash between mutation and sync is then
// indistinguishable from a crash before the mutation: the sender never
// saw the ack and retries; the coordinator never saw the ok and
// retries. Syncs after internal transitions (checkpoint retirement,
// completion) are only promptness — losing one re-runs a step from its
// hop boundary, which the replay contract already tolerates.
//
// File format: a 12-byte header (magic, then the node id as a
// little-endian uint32), then batches. A batch is a little-endian
// uint32 payload length, a CRC-32C of the payload, and the payload — a
// run of records. Each sync that has anything to write appends exactly
// one batch with one write call. The log is rewritten from the live
// state (tmp + rename; the compacted log is the snapshot) when it
// outgrows compactRatio times the last compacted size.
//
// Durability is scoped to process-level crashes (kill -9, panic): the
// write lands in the page cache, which survives the death of the
// process but not of the machine. No fsync is paid, so a power loss can
// lose batches whose acks already left (DESIGN.md §13.2).

const (
	logFileName = "node.log"
	// legacyStateFile is the full-image gob snapshot earlier builds
	// wrote; its presence means a state dir this build cannot read.
	legacyStateFile = "node-state.gob"
	logMagic        = "NAVPLOG1"
	logHeaderLen    = len(logMagic) + 4
	batchHeaderLen  = 8
	// A log is compacted when it holds more than compactRatio times the
	// bytes of its last compacted image, and more than compactMinBytes
	// (so a small node does not compact every few batches). Compaction
	// then costs at most 1/(compactRatio-1) of the bytes appended.
	compactRatio    = 4
	compactMinBytes = 256 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errLogClosed is returned by syncs after the host closed its log.
var errLogClosed = errors.New("wire: node log closed")

// nodeLog is one node's append-only log, written by group commit.
type nodeLog struct {
	path string
	ns   *nodeState

	mu      sync.Mutex
	flushed *sync.Cond // broadcast when a batch finishes
	started uint64     // batches whose collection has begun
	done    uint64     // batches finished (written, empty, or failed)
	leading bool       // a leader is collecting or writing a batch
	closed  bool
	err     error // sticky: a failed batch leaves the log unusable

	// Owned by the current leader (leading == true), or by whoever
	// opens or closes the log while no leader can exist.
	f    *os.File
	size int64  // bytes in the log file
	live int64  // bytes of the last compacted image
	buf  []byte // batch scratch, reused across flushes
}

// openNodeLog opens dir's node log for ns (a fresh nodeState for node
// ns.id): an existing log is replayed into ns, then rewritten compact,
// and ns persists through the log from here on. A state dir holding a
// snapshot from the earlier full-image format is refused.
func openNodeLog(dir string, ns *nodeState) (*nodeLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wire: state dir: %w", err)
	}
	legacy := filepath.Join(dir, legacyStateFile)
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("wire: %s is a full-image snapshot from an older build; this build persists to %s and cannot read it (move the file away to start the node empty)", legacy, logFileName)
	}
	path := filepath.Join(dir, logFileName)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("wire: read node log: %w", err)
	default:
		if err := loadNodeLog(data, ns); err != nil {
			return nil, fmt.Errorf("wire: node log %s: %w", path, err)
		}
	}
	ns.enableLog()
	l := &nodeLog{path: path, ns: ns}
	l.flushed = sync.NewCond(&l.mu)
	// Rewriting at open drops a torn tail before anything is appended
	// after it, and starts the compaction accounting from a known size.
	if err := l.compact(); err != nil {
		return nil, err
	}
	ns.persist = l
	return l, nil
}

// enableLog starts pending-change tracking in every domain of the node.
// Called before the node is shared.
func (ns *nodeState) enableLog() {
	ns.mu.Lock()
	ns.pend = newNodePending()
	ns.mu.Unlock()
	ns.vars.mu.Lock()
	if ns.vars.enc == nil {
		ns.vars.enc = map[string][]byte{}
	}
	ns.vars.mu.Unlock()
	ns.cancels.mu.Lock()
	ns.cancels.pend = map[uint64]struct{}{}
	ns.cancels.mu.Unlock()
}

// loadNodeLog replays a log image into ns. A torn final batch — cut
// short, or failing its CRC with nothing after it — is dropped: its
// write never completed, so the sync waiting on it never returned and
// nothing it held was acknowledged. Damage anywhere else is an error.
func loadNodeLog(data []byte, ns *nodeState) error {
	if len(data) < logHeaderLen || string(data[:len(logMagic)]) != logMagic {
		return errors.New("not a node log (bad header)")
	}
	if node := binary.LittleEndian.Uint32(data[len(logMagic):logHeaderLen]); int64(node) != int64(ns.id) {
		return fmt.Errorf("log belongs to node %d, not %d", node, ns.id)
	}
	for off := logHeaderLen; off < len(data); {
		rest := data[off:]
		if len(rest) < batchHeaderLen {
			return nil // torn batch header
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-batchHeaderLen) {
			return nil // torn batch body
		}
		end := batchHeaderLen + int(n)
		payload := rest[batchHeaderLen:end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
			if end == len(rest) {
				return nil // torn final batch
			}
			return fmt.Errorf("batch at offset %d fails its checksum", off)
		}
		if err := ns.applyBatch(payload); err != nil {
			return fmt.Errorf("batch at offset %d: %w", off, err)
		}
		off += end
	}
	return nil
}

// sync returns once every mutation that happened before the call is in
// the log. Concurrent callers share one write: the first becomes the
// leader and flushes everything pending, the rest wait on its batch. A
// caller that arrives while a batch is being written waits for the next
// one, because the running batch may have been collected before the
// caller's mutation.
func (l *nodeLog) sync() error {
	l.mu.Lock()
	want := l.started + 1
	for l.done < want && l.err == nil && !l.closed {
		if l.leading {
			l.flushed.Wait()
			continue
		}
		l.leading = true
		l.started++
		batch := l.started
		l.mu.Unlock()
		err := l.flush()
		l.mu.Lock()
		l.leading = false
		l.done = batch
		if err != nil && l.err == nil {
			l.err = err
		}
		l.flushed.Broadcast()
	}
	err := l.err
	if err == nil && l.closed && l.done < want {
		err = errLogClosed
	}
	l.mu.Unlock()
	return err
}

// flush writes one batch of everything pending, or compacts the log
// when it has outgrown its live state. Nothing pending, no I/O.
// Leader only.
func (l *nodeLog) flush() error {
	b := &recBuf{b: append(l.buf[:0], make([]byte, batchHeaderLen)...)}
	if err := l.ns.pendingRecords(b); err != nil {
		return err
	}
	defer func() { l.buf = b.b }()
	if len(b.b) == batchHeaderLen {
		return nil
	}
	if l.size > compactRatio*l.live && l.size > compactMinBytes {
		// The pending marks were consumed above; the compacted image
		// holds their current values along with everything else.
		return l.compact()
	}
	sealBatch(b.b)
	n, err := l.f.Write(b.b)
	l.size += int64(n)
	l.ns.met.logBytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire: append node log: %w", err)
	}
	l.ns.met.logBatches.Inc()
	return nil
}

// compact rewrites the log as one batch generated from the live state:
// written to a temp file, renamed over the log, reopened for append. A
// crash before the rename leaves the old log intact. Leader only (or
// at open, before the node is shared).
func (l *nodeLog) compact() error {
	b := &recBuf{b: make([]byte, logHeaderLen+batchHeaderLen, l.live+4096)}
	copy(b.b, logMagic)
	binary.LittleEndian.PutUint32(b.b[len(logMagic):], uint32(l.ns.id))
	if err := l.ns.snapshotRecords(b); err != nil {
		return err
	}
	sealBatch(b.b[logHeaderLen:])
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b.b, 0o644); err != nil {
		return fmt.Errorf("wire: compact node log: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wire: compact node log: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("wire: reopen node log: %w", err)
	}
	if l.f != nil {
		l.f.Close() // the old inode is unlinked; nothing to flush
	}
	l.f = f
	l.size, l.live = int64(len(b.b)), int64(len(b.b))
	l.ns.met.logBytes.Add(int64(len(b.b)))
	l.ns.met.logCompactions.Inc()
	return nil
}

// sealBatch fills in the header of a batch whose payload follows its
// batchHeaderLen placeholder bytes.
func sealBatch(batch []byte) {
	payload := batch[batchHeaderLen:]
	binary.LittleEndian.PutUint32(batch, uint32(len(payload)))
	binary.LittleEndian.PutUint32(batch[4:], crc32.Checksum(payload, crcTable))
}

// close waits out a running batch and closes the file; later syncs fail
// with errLogClosed.
func (l *nodeLog) close() {
	l.mu.Lock()
	l.closed = true
	for l.leading {
		l.flushed.Wait()
	}
	l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
	}
}

// snapshotRecords writes the node's whole durable image — every domain
// — into b.
func (ns *nodeState) snapshotRecords(b *recBuf) error {
	ns.snapshotState(b)
	if err := ns.vars.snapshotRecords(b); err != nil {
		return err
	}
	ns.cancels.snapshotRecords(b)
	return nil
}

// pendingRecords drains every domain's pending changes into b. Each
// domain is captured consistently with itself under its own lock;
// cross-domain skew is harmless because every domain only ever gets
// newer, and a later batch carries whatever a domain gained after its
// capture.
func (ns *nodeState) pendingRecords(b *recBuf) error {
	ns.pendingState(b)
	if err := ns.vars.pendingRecords(b); err != nil {
		return err
	}
	ns.cancels.pendingRecords(b)
	return nil
}

// sync persists every mutation of the node that happened before the
// call, when persistence is enabled. Failures are returned so daemons
// can fail loudly: silently serving unpersisted acks would forfeit the
// recovery guarantee.
//
//navplint:fact sync
func (ns *nodeState) sync() error {
	if ns.persist == nil {
		return nil
	}
	return ns.persist.sync()
}
