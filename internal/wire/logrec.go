package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The node log's record set. Every durable mutation of a node — the
// nodeState under ns.mu, the variable table under store.mu, the cancel
// set under cancelSet.mu — marks what it changed in a pending set
// guarded by the same lock. A log batch turns the marks into records
// carrying the *current* value of each changed key (or its deletion),
// so a key changed five times between two batches is written once, and
// a checkpoint put and retired between two batches is written as a
// deletion only. Replay applies records in order; a compacted log is
// the same records generated from the whole live state.
//
// Encoding: one kind byte, then the kind's fields as uvarints (ids,
// hops, jobs, node numbers), varints (counters) and length-prefixed
// byte strings. Nothing is gob except the opaque payloads — checkpointed
// agent state and variable values — which are encodeState bytes, made
// once: when a variable is set or an agent is built, or carried verbatim
// from the frame the value arrived in. Frames (frame.go) use the same
// primitives, and a recCkpt record's fields are a msgAgent frame's body.

type recKind byte

const (
	recTotals       recKind = iota + 1 // created, finished, sent, received, nextAgent, arrivals
	recJob                             // job, created, finished, sent, received
	recJobDel                          // job
	recCkpt                            // id, hop, job, behavior, state
	recCkptDel                         // id
	recLastHop                         // id, hop
	recLastHopDel                      // id
	recRetired                         // id, hop: append to the retired dedup FIFO
	recRetiredPop                      // n: advance the FIFO head by n entries
	recMigration                       // id, dst
	recMigrationDel                    // id
	recReroute                         // id, dst
	recRerouteDel                      // id
	recFreeze                          // job
	recThaw                            // job
	recFlags                           // draining|evacuated|drained bits, absorbTarget+1
	recAbsorbed                        // src
	recVar                             // name, gob(stateBox)
	recVarDelPrefix                    // prefix
	recCancel                          // job
	recCancelDel                       // job
	numRecKinds
)

// Drain flag bits of recFlags.
const (
	flagDraining = 1 << iota
	flagEvacuated
	flagDrained
)

// pendKey names one keyed domain of a nodeState's pending change set.
type pendKey int

const (
	pendJob pendKey = iota
	pendCkpt
	pendLastHop
	pendMigration
	pendReroute
	pendFrozen
	pendAbsorbed
	numPendKeys
)

// nodePending is the part of a nodeState's change set the node log has
// not written yet. Methods are no-ops on a nil receiver (a node that
// does not persist); callers hold ns.mu.
//
// The retired FIFO is the one ordered structure, so it is logged as
// appends plus head advances rather than by key. Appends and pops
// commute across one batch — the final queue is (old ++ appended)
// minus the first popped entries — so the batch writes all appends,
// then one pop count.
type nodePending struct {
	totals  bool
	flags   bool
	keys    [numPendKeys]map[uint64]struct{}
	retired []dedupRetired
	popped  int
}

func newNodePending() *nodePending {
	p := &nodePending{}
	for i := range p.keys {
		p.keys[i] = map[uint64]struct{}{}
	}
	return p
}

func (p *nodePending) mark(k pendKey, id uint64) {
	if p != nil {
		p.keys[k][id] = struct{}{}
	}
}

func (p *nodePending) markTotals() {
	if p != nil {
		p.totals = true
	}
}

func (p *nodePending) markFlags() {
	if p != nil {
		p.flags = true
	}
}

func (p *nodePending) pushRetired(e dedupRetired) {
	if p != nil {
		p.retired = append(p.retired, e)
	}
}

func (p *nodePending) popRetired() {
	if p != nil {
		p.popped++
	}
}

func (p *nodePending) reset() {
	if p == nil {
		return
	}
	p.totals, p.flags = false, false
	for _, m := range p.keys {
		clear(m)
	}
	p.retired = p.retired[:0]
	p.popped = 0
}

// recBuf appends encoded records and frame bodies.
type recBuf struct{ b []byte }

// Write appends p, so gob can encode a payload straight into the buffer.
func (w *recBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *recBuf) kind(k recKind)           { w.b = append(w.b, byte(k)) }
func (w *recBuf) u(x uint64)               { w.b = binary.AppendUvarint(w.b, x) }
func (w *recBuf) i(x int64)                { w.b = binary.AppendVarint(w.b, x) }
func (w *recBuf) bytes(p []byte)           { w.u(uint64(len(p))); w.b = append(w.b, p...) }
func (w *recBuf) str(s string)             { w.u(uint64(len(s))); w.b = append(w.b, s...) }
func (w *recBuf) key(k recKind, id uint64) { w.kind(k); w.u(id) }

func (w *recBuf) counters(c counters) {
	w.i(c.Created)
	w.i(c.Finished)
	w.i(c.Sent)
	w.i(c.Received)
}

func (w *recBuf) ckpt(id uint64, c *checkpoint) {
	w.kind(recCkpt)
	w.agentHead(id, c.hop, c.job, c.behavior)
	w.bytes(c.state)
}

// agentHead writes an agent's identity and behavior: the fields of a
// recCkpt record and of a msgAgent frame that precede the state.
func (w *recBuf) agentHead(id, hop, job uint64, behavior string) {
	w.u(id)
	w.u(hop)
	w.u(job)
	w.str(behavior)
}

// payload writes an opaque value as length-prefixed encodeState bytes:
// enc verbatim when the caller already holds them, otherwise v encoded
// in place — gob writes straight into the buffer and the encoding is
// shifted right to make room for its length. A nil value with no bytes
// is the empty payload.
func (w *recBuf) payload(v any, enc []byte) error {
	if enc != nil || v == nil {
		w.bytes(enc)
		return nil
	}
	start := len(w.b)
	if err := encodeStateTo(w, v); err != nil {
		return err
	}
	n := len(w.b) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	w.b = append(w.b, hdr[:h]...)
	copy(w.b[start+h:], w.b[start:start+n])
	copy(w.b[start:], hdr[:h])
	return nil
}

// pin writes a migration or reroute pin (or its removal) for id.
func (w *recBuf) pin(set, del recKind, m map[uint64]int, id uint64) {
	if dst, ok := m[id]; ok {
		w.key(set, id)
		w.u(uint64(dst))
		return
	}
	w.key(del, id)
}

// pendingState drains the nodeState's pending change set into b: one
// record per changed key, carrying the key's value now.
func (ns *nodeState) pendingState(b *recBuf) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	p := ns.pend
	if p.totals {
		ns.totalsRecord(b)
	}
	for job := range p.keys[pendJob] {
		if c, ok := ns.perJob[job]; ok {
			b.key(recJob, job)
			b.counters(*c)
		} else {
			b.key(recJobDel, job)
		}
	}
	for id := range p.keys[pendCkpt] {
		if c, ok := ns.ckpt[id]; ok {
			b.ckpt(id, c)
		} else {
			b.key(recCkptDel, id)
		}
	}
	for id := range p.keys[pendLastHop] {
		if hop, ok := ns.lastHop[id]; ok {
			b.key(recLastHop, id)
			b.u(hop)
		} else {
			b.key(recLastHopDel, id)
		}
	}
	for _, e := range p.retired {
		b.key(recRetired, e.id)
		b.u(e.hop)
	}
	if p.popped > 0 {
		b.key(recRetiredPop, uint64(p.popped))
	}
	for id := range p.keys[pendMigration] {
		b.pin(recMigration, recMigrationDel, ns.migrations, id)
	}
	for id := range p.keys[pendReroute] {
		b.pin(recReroute, recRerouteDel, ns.reroutes, id)
	}
	for job := range p.keys[pendFrozen] {
		if _, ok := ns.frozen[job]; ok {
			b.key(recFreeze, job)
		} else {
			b.key(recThaw, job)
		}
	}
	if p.flags {
		ns.flagsRecord(b)
	}
	for src := range p.keys[pendAbsorbed] {
		b.kind(recAbsorbed)
		b.i(int64(src))
	}
	p.reset()
}

func (ns *nodeState) totalsRecord(b *recBuf) {
	b.kind(recTotals)
	b.counters(counters{Created: ns.created, Finished: ns.finished, Sent: ns.sent, Received: ns.received})
	b.u(ns.nextAgent)
	b.i(ns.arrivals)
}

func (ns *nodeState) flagsRecord(b *recBuf) {
	var bits uint64
	if ns.draining {
		bits |= flagDraining
	}
	if ns.evacuated {
		bits |= flagEvacuated
	}
	if ns.drained {
		bits |= flagDrained
	}
	b.kind(recFlags)
	b.u(bits)
	b.u(uint64(ns.absorbTarget + 1))
}

// snapshotState writes the nodeState's whole durable image into b and
// clears its pending set: the body of a compacted log. Maps are written
// in key order so equal states compact to equal bytes.
func (ns *nodeState) snapshotState(b *recBuf) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.totalsRecord(b)
	for _, job := range sortedKeys(ns.perJob) {
		b.key(recJob, job)
		b.counters(*ns.perJob[job])
	}
	for _, id := range sortedKeys(ns.ckpt) {
		b.ckpt(id, ns.ckpt[id])
	}
	for _, id := range sortedKeys(ns.lastHop) {
		b.key(recLastHop, id)
		b.u(ns.lastHop[id])
	}
	for _, e := range ns.retired[ns.retiredHead:] {
		b.key(recRetired, e.id)
		b.u(e.hop)
	}
	for _, id := range sortedKeys(ns.migrations) {
		b.pin(recMigration, recMigrationDel, ns.migrations, id)
	}
	for _, id := range sortedKeys(ns.reroutes) {
		b.pin(recReroute, recRerouteDel, ns.reroutes, id)
	}
	for _, job := range sortedKeys(ns.frozen) {
		b.key(recFreeze, job)
	}
	ns.flagsRecord(b)
	srcs := make([]int, 0, len(ns.absorbed))
	for src := range ns.absorbed {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		b.kind(recAbsorbed)
		b.i(int64(src))
	}
	ns.pend.reset()
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// pendingRecords drains the variable table's pending sets and prefix
// deletes into b, in the order they happened. A value that failed to
// encode fails the batch.
func (s *store) pendingRecords(b *recBuf) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.encErr != nil {
		return s.encErr
	}
	for _, op := range s.pend {
		if op.delete {
			b.kind(recVarDelPrefix)
			b.str(op.name)
			continue
		}
		b.kind(recVar)
		b.str(op.name)
		b.bytes(op.enc)
	}
	clear(s.pend)
	s.pend = s.pend[:0]
	return nil
}

// snapshotRecords writes every variable's stored encoding into b.
func (s *store) snapshotRecords(b *recBuf) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.encErr != nil {
		return s.encErr
	}
	names := make([]string, 0, len(s.enc))
	for name := range s.enc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.kind(recVar)
		b.str(name)
		b.bytes(s.enc[name])
	}
	clear(s.pend)
	s.pend = s.pend[:0]
	return nil
}

// pendingRecords drains the cancel marks changed since the last batch.
func (cs *cancelSet) pendingRecords(b *recBuf) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for job := range cs.pend {
		if _, ok := cs.m[job]; ok {
			b.key(recCancel, job)
		} else {
			b.key(recCancelDel, job)
		}
	}
	clear(cs.pend)
}

// snapshotRecords writes every cancel mark into b.
func (cs *cancelSet) snapshotRecords(b *recBuf) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, job := range sortedKeys(cs.m) {
		b.key(recCancel, job)
	}
	clear(cs.pend)
}

// recReader decodes records from one batch. The first malformed field
// sets err; later reads return zero values.
type recReader struct {
	b   []byte
	err error
}

var errRecordTruncated = errors.New("record truncated")

func (r *recReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errRecordTruncated
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *recReader) i() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errRecordTruncated
		return 0
	}
	r.b = r.b[n:]
	return x
}

// node reads a node number (a destination or an absorb target).
func (r *recReader) node() int {
	x := r.u()
	if x > math.MaxInt32 {
		r.fail("node number %d out of range", x)
		return 0
	}
	return int(x)
}

// view returns a length-prefixed byte string in place.
func (r *recReader) view() []byte {
	n := r.u()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errRecordTruncated
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// bytes returns a copy of a length-prefixed byte string: the replayed
// state must not pin the whole log image in memory, and a decoded frame
// must not alias its recycled body buffer.
func (r *recReader) bytes() []byte { return bytes.Clone(r.view()) }

// str returns a copy of a length-prefixed string.
func (r *recReader) str() string { return string(r.view()) }

// int reads a varint that must fit an int (a frame's node, count or
// member id).
func (r *recReader) int() int {
	x := r.i()
	if int64(int(x)) != x {
		r.fail("integer %d out of range", x)
		return 0
	}
	return int(x)
}

// count reads an element count and bounds it by the bytes left, each
// element taking at least minBytes, so a hostile count cannot make the
// reader allocate more than the input could fill.
func (r *recReader) count(minBytes int) int {
	n := r.u()
	if r.err == nil && n > uint64(len(r.b)/minBytes) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// agentHead reads the fields recBuf.agentHead writes.
func (r *recReader) agentHead() (id, hop, job uint64, behavior string) {
	return r.u(), r.u(), r.u(), r.str()
}

// payload reads an opaque value written by recBuf.payload, returning the
// decoded value and, when keep is set, a private copy of its bytes for a
// receiver that stores them; the empty payload is nil.
func (r *recReader) payload(keep bool) (any, []byte) {
	enc := r.view()
	if r.err != nil || len(enc) == 0 {
		return nil, nil
	}
	v, err := decodeState(enc)
	if err != nil {
		r.fail("%v", err)
		return nil, nil
	}
	if !keep {
		return v, nil
	}
	return v, bytes.Clone(enc)
}

func (r *recReader) counters() counters {
	return counters{Created: r.i(), Finished: r.i(), Sent: r.i(), Received: r.i()}
}

func (r *recReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// applyBatch replays one batch's records into ns. ns is not yet serving,
// so the fields are written directly (through the gauge-keeping helpers,
// so a reloaded node's metrics match its footprint).
func (ns *nodeState) applyBatch(payload []byte) error {
	r := &recReader{b: payload}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for len(r.b) > 0 && r.err == nil {
		k := recKind(r.b[0])
		r.b = r.b[1:]
		ns.applyRecord(k, r)
	}
	return r.err
}

// applyRecord replays one record. Callers hold ns.mu; the variable table
// and cancel set are not yet shared, so their locks are taken inside.
func (ns *nodeState) applyRecord(k recKind, r *recReader) {
	switch k {
	case recTotals:
		c := r.counters()
		ns.created, ns.finished, ns.sent, ns.received = c.Created, c.Finished, c.Sent, c.Received
		ns.nextAgent, ns.arrivals = r.u(), r.i()
	case recJob:
		job, c := r.u(), r.counters()
		if r.err == nil {
			*ns.jobCounters(job) = c
		}
	case recJobDel:
		if job := r.u(); r.err == nil {
			if _, ok := ns.perJob[job]; ok {
				delete(ns.perJob, job)
				ns.met.jobsTracked.Add(-1)
			}
		}
	case recCkpt:
		id, hop, job, behavior := r.agentHead()
		state := r.bytes()
		if r.err == nil {
			ns.putCkpt(id, &checkpoint{behavior: behavior, hop: hop, job: job, state: state})
		}
	case recCkptDel:
		if id := r.u(); r.err == nil {
			ns.delCkpt(id)
		}
	case recLastHop:
		if id, hop := r.u(), r.u(); r.err == nil {
			ns.setLastHop(id, hop)
		}
	case recLastHopDel:
		if id := r.u(); r.err == nil {
			if _, ok := ns.lastHop[id]; ok {
				delete(ns.lastHop, id)
				ns.met.dedupSize.Add(-1)
			}
		}
	case recRetired:
		if id, hop := r.u(), r.u(); r.err == nil {
			ns.pushRetired(dedupRetired{id: id, hop: hop})
		}
	case recRetiredPop:
		n := r.u()
		if r.err == nil && n > uint64(len(ns.retired)-ns.retiredHead) {
			r.fail("retired FIFO pop of %d beyond its %d entries", n, len(ns.retired)-ns.retiredHead)
		}
		if r.err == nil {
			ns.popRetired(int(n))
		}
	case recMigration, recReroute:
		id, dst := r.u(), r.node()
		if r.err == nil {
			ns.pinsFor(k)[id] = dst
		}
	case recMigrationDel, recRerouteDel:
		if id := r.u(); r.err == nil {
			delete(ns.pinsFor(k), id)
		}
	case recFreeze:
		if job := r.u(); r.err == nil {
			ns.frozen[job] = struct{}{}
		}
	case recThaw:
		if job := r.u(); r.err == nil {
			delete(ns.frozen, job)
		}
	case recFlags:
		bits, target := r.u(), r.u()
		switch {
		case r.err != nil:
		case bits&^(flagDraining|flagEvacuated|flagDrained) != 0:
			r.fail("unknown drain flag bits %#x", bits)
		case target > math.MaxInt32:
			r.fail("absorb target %d out of range", target)
		default:
			ns.draining, ns.evacuated, ns.drained = bits&flagDraining != 0, bits&flagEvacuated != 0, bits&flagDrained != 0
			ns.absorbTarget = int(target) - 1
		}
	case recAbsorbed:
		src := r.i()
		if r.err == nil && (src < math.MinInt32 || src > math.MaxInt32) {
			r.fail("absorbed node %d out of range", src)
		}
		if r.err == nil {
			ns.absorbed[int(src)] = true
		}
	case recVar:
		name, enc := r.str(), r.bytes()
		if r.err == nil {
			if err := ns.vars.load(name, enc); err != nil {
				r.fail("%v", err)
			}
		}
	case recVarDelPrefix:
		if prefix := r.str(); r.err == nil {
			ns.vars.deletePrefix(prefix)
		}
	case recCancel:
		if job := r.u(); r.err == nil {
			ns.cancels.cancel(job)
		}
	case recCancelDel:
		if job := r.u(); r.err == nil {
			ns.cancels.release(job)
		}
	default:
		r.fail("unknown record kind %d", k)
	}
}

// pinsFor maps a pin record kind to the table it edits.
func (ns *nodeState) pinsFor(k recKind) map[uint64]int {
	if k == recMigration || k == recMigrationDel {
		return ns.migrations
	}
	return ns.reroutes
}

// load installs one replayed variable from its stored encoding.
func (s *store) load(name string, enc []byte) error {
	v, err := decodeState(enc)
	if err != nil {
		return fmt.Errorf("wire: restore variable %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		s.enc = map[string][]byte{}
	}
	s.m[name] = v
	s.enc[name] = enc
	return nil
}
