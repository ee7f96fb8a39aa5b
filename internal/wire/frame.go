package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// msgKind is a frame's message kind: the second byte of every frame
// body. The values are the wire format, so new kinds are appended and
// none is ever renumbered.
type msgKind uint8

// Message kinds on the wire.
const (
	msgAgent    msgKind = iota + 1 // a migrating computation's state
	msgAck                         // receiver: hop frame durably checkpointed
	msgSnapshot                    // coordinator polling a daemon's counters
	msgCounters                    // a daemon's reply
	msgPing                        // coordinator heartbeat probe
	msgPong                        // a daemon's heartbeat reply
	msgShutdown                    // coordinator: quiesced, stop serving

	// Membership (multi-host clusters; see DESIGN.md §13).
	msgJoin    // a starting daemon announces itself (Addr); empty Addr = observer query
	msgMembers // the membership list: join reply (You = your id) or peer broadcast (You = -1)
	msgLeave   // graceful departure notice for member Node

	// Coordinator → daemon control (the RemoteCluster surface).
	msgInject // inject Agent locally under namespace Job
	msgSetVar // set node variable Name = Value
	msgGetVar // read node variable Name
	msgVar    // getvar reply (Value)
	msgCancel // mark job namespace Job cancelled
	msgFree   // release job namespace Job's bookkeeping
	msgClear  // delete node variables with prefix Name
	msgOK     // generic control acknowledgement (Err carries failure)

	// Migration and elasticity control (DESIGN.md §16). Migration rides
	// the agent path itself — a marked agent ships as a normal msgAgent
	// at hop+1 — so only the *marking* and the drain/freeze state
	// machines need control frames.
	msgMigrate  // mark up to Count agents (namespace Job, 0 = any) for migration to node Node
	msgMigrated // migrate reply: Count agents marked
	msgDrain    // evacuate every agent, absorb counters, leave (Count = timeout ms, 0 = default)
	msgAbsorb   // a draining node Node hands its counter totals (Counters, PerJob) to a survivor
	msgFreeze   // park namespace Job's agents at their next dispatch
	msgThaw     // unpark namespace Job's agents and resume them

	numMsgKinds
)

var msgKindNames = [numMsgKinds]string{
	msgAgent: "agent", msgAck: "ack", msgSnapshot: "snapshot", msgCounters: "counters",
	msgPing: "ping", msgPong: "pong", msgShutdown: "shutdown",
	msgJoin: "join", msgMembers: "members", msgLeave: "leave",
	msgInject: "inject", msgSetVar: "setvar", msgGetVar: "getvar", msgVar: "var",
	msgCancel: "cancel", msgFree: "free", msgClear: "clear", msgOK: "ok",
	msgMigrate: "migrate", msgMigrated: "migrated", msgDrain: "drain", msgAbsorb: "absorb",
	msgFreeze: "freeze", msgThaw: "thaw",
}

func (k msgKind) String() string {
	if k > 0 && k < numMsgKinds {
		return msgKindNames[k]
	}
	return fmt.Sprintf("kind %d", uint8(k))
}

// envelope is one frame's message; a kind carries only its own fields
// (see encode) and the rest stay zero.
type envelope struct {
	Kind msgKind
	// Agent migration (msgAgent) and remote injection (msgInject).
	Agent *agentMsg
	// Hop acknowledgement (the checkpoint/dedup handshake).
	Ack ackMsg
	// Termination detection (Mattern's four counters). Job selects which
	// namespace a msgSnapshot polls: 0 is the cluster-wide total, any
	// other value the per-job slice (see nodeState.jobCounters). Job is
	// also the namespace operand of msgInject/msgCancel/msgFree.
	Counters counters
	Job      uint64

	// Membership handshake: the joiner's advertised address (msgJoin),
	// the address table in node-id order (msgMembers), the assigned node
	// id in a join reply — -1 for observers and broadcasts (msgMembers) —
	// and the departing member (msgLeave).
	Addr    string
	Members []string
	You     int
	Node    int

	// Control operands: variable name or prefix (msgSetVar, msgGetVar,
	// msgClear), variable value (msgSetVar, msgVar), and the error text
	// of a failed control operation (msgOK, msgVar). valueEnc is Value's
	// encodeState bytes when they are already at hand — a decoded
	// frame's private copy, or a logged variable's stored encoding — so
	// neither side encodes the value twice.
	Name     string
	Value    any
	valueEnc []byte
	Err      string

	// Migration operands: a bounded agent count (msgMigrate request and
	// msgMigrated reply; drain timeout in milliseconds for msgDrain) and
	// a draining node's per-job counter slices (msgAbsorb, alongside the
	// cluster-wide total in Counters).
	Count  int
	PerJob map[uint64]counters
}

// agentMsg is a migrating computation between steps: the behavior name
// (code is pre-installed), the carried state, and the identity that
// makes delivery exactly-once under retries — a cluster-unique agent ID
// and the count of hops the agent has completed. A receiver accepts a
// frame only when Hop exceeds the highest hop it has recorded for ID;
// anything else is a duplicate or a replay and is acknowledged but
// discarded.
//
// Job is the agent's job namespace, inherited by everything it injects
// and carried across every hop. It scopes the termination counters (so
// one tenant's quiescence is detectable while others still run) and the
// cancellation set; 0 is the default namespace of plain Cluster.Inject.
//
// enc is State's encodeState bytes as the agent arrived off the wire
// (nil for an agent built locally). They are only State's image until
// the first step mutates it, so accept and inject consume them as the
// checkpoint and clear the field (see takeStateBytes).
type agentMsg struct {
	ID       uint64
	Hop      uint64
	Job      uint64
	Behavior string
	State    any
	enc      []byte
}

// ackMsg acknowledges one hop frame: the receiver has checkpointed the
// agent (or already had it — Dup). On receipt the sender retires its own
// checkpoint of the agent's previous hop and counts the send.
//
// Refused is the tombstone-shell refusal (DESIGN.md §16): an evacuated
// node acknowledging that it did NOT accept a fresh frame. The sender
// may then reroute the agent to a live member, knowing no second copy
// exists — the refusing node either never saw this (id, hop) or would
// have answered Dup.
type ackMsg struct {
	ID      uint64
	Hop     uint64
	Dup     bool
	Refused bool
}

// Ack flag bits on the wire.
const (
	ackDup = 1 << iota
	ackRefused
)

// counters is one daemon's contribution to the termination snapshot.
type counters struct {
	Created, Finished int64
	Sent, Received    int64
}

func (c *counters) add(o counters) {
	c.Created += o.Created
	c.Finished += o.Finished
	c.Sent += o.Sent
	c.Received += o.Received
}

// frameVersion is the first byte of every frame body. A peer speaking
// another version — including a build from before the binary codec,
// whose frames were gob streams — is refused frame by frame with an
// error naming the version it sent.
const frameVersion = 1

// maxFrameBytes bounds a single frame; anything larger is rejected before
// allocation, so a corrupted length prefix cannot exhaust memory.
const maxFrameBytes = 64 << 20

var (
	errFrameTooLarge  = errors.New("wire: frame exceeds size limit")
	errBadFramePrefix = errors.New("wire: malformed frame length prefix")
)

// headerReserve is the space kept at the front of a frame buffer for
// the uvarint length prefix: the prefix is written backwards into the
// reservation once the body length is known, so header and body leave
// the encoder as one contiguous, copy-free byte slice.
const headerReserve = binary.MaxVarintLen64

// frame is one encoded wire frame backed by a pooled buffer. bytes()
// is valid until release(); a released frame's storage is recycled for
// later encodes, which is what keeps steady-state hop traffic free of
// per-frame buffer allocations.
type frame struct {
	buf *recBuf
	off int // start of the uvarint header inside buf.b
}

// bytes returns the wire representation: uvarint length prefix followed
// by the body, one contiguous slice with no copy.
func (f *frame) bytes() []byte { return f.buf.b[f.off:] }

// size returns the on-wire frame length in bytes.
func (f *frame) size() int { return len(f.buf.b) - f.off }

// release recycles the frame's buffer. The frame (and any slice
// obtained from bytes()) must not be used afterwards.
func (f *frame) release() {
	putFrameBuf(f.buf)
	f.buf = nil
}

// maxPooledBuf bounds what the buffer pools retain: buffers that grew
// beyond it (a huge agent state, a burst frame) are dropped for the GC
// instead of parked, so the pools cannot ratchet up to peak size
// forever.
const maxPooledBuf = 1 << 20

var frameBufPool = sync.Pool{New: func() any { return new(recBuf) }}

func getFrameBuf() *recBuf {
	buf := frameBufPool.Get().(*recBuf)
	buf.b = buf.b[:0]
	return buf
}

func putFrameBuf(buf *recBuf) {
	if buf == nil || cap(buf.b) > maxPooledBuf {
		return
	}
	frameBufPool.Put(buf)
}

var headerPad [headerReserve]byte

// encodeFrame renders an envelope as one self-contained frame: a uvarint
// length prefix, then the body — the version byte, the kind byte, and
// that kind's fields in the node log's record encoding (encode).
// Self-contained frames — no per-connection stream state — are what make
// the fault layer possible: a frame can be retransmitted or duplicated
// byte-for-byte, a reconnect needs no handshake, and a corrupted frame
// cannot desynchronize anything beyond itself.
//
// The body is encoded directly into a pooled buffer after a reserved
// header region, and the prefix is then written backwards into the tail
// of that reservation — no append copy of the body, no per-frame buffer
// allocation. Callers release() the frame once written.
func encodeFrame(env *envelope) (*frame, error) {
	buf := getFrameBuf()
	buf.b = append(buf.b, headerPad[:]...)
	if err := env.encode(buf); err != nil {
		putFrameBuf(buf)
		return nil, fmt.Errorf("wire: encode %s frame: %w", env.Kind, err)
	}
	bodyLen := len(buf.b) - headerReserve
	if bodyLen > maxFrameBytes {
		putFrameBuf(buf)
		return nil, errFrameTooLarge
	}
	var hdr [headerReserve]byte
	n := binary.PutUvarint(hdr[:], uint64(bodyLen))
	off := headerReserve - n
	copy(buf.b[off:headerReserve], hdr[:n])
	return &frame{buf: buf, off: off}, nil
}

// encode appends the envelope's frame body to w: version, kind, then
// exactly the kind's fields. Integers are uvarints (ids, hops, jobs) or
// varints (node numbers, counts, counters), strings and payloads are
// length-prefixed, and an agent is written as a recCkpt record's fields.
func (env *envelope) encode(w *recBuf) error {
	w.b = append(w.b, frameVersion, byte(env.Kind))
	switch env.Kind {
	case msgAgent:
		return w.agent(env.Agent)
	case msgInject:
		w.u(env.Job)
		return w.agent(env.Agent)
	case msgAck:
		w.u(env.Ack.ID)
		w.u(env.Ack.Hop)
		var flags uint64
		if env.Ack.Dup {
			flags |= ackDup
		}
		if env.Ack.Refused {
			flags |= ackRefused
		}
		w.u(flags)
	case msgSnapshot, msgCancel, msgFree, msgFreeze, msgThaw:
		w.u(env.Job)
	case msgCounters:
		w.counters(env.Counters)
		w.u(env.Job)
	case msgPing, msgPong, msgShutdown:
	case msgJoin:
		w.str(env.Addr)
	case msgMembers:
		w.u(uint64(len(env.Members)))
		for _, m := range env.Members {
			w.str(m)
		}
		w.i(int64(env.You))
	case msgLeave:
		w.i(int64(env.Node))
	case msgSetVar:
		w.str(env.Name)
		return w.payload(env.Value, env.valueEnc)
	case msgGetVar, msgClear:
		w.str(env.Name)
	case msgVar:
		w.str(env.Err)
		return w.payload(env.Value, env.valueEnc)
	case msgOK:
		w.str(env.Err)
	case msgMigrate:
		w.i(int64(env.Node))
		w.u(env.Job)
		w.i(int64(env.Count))
	case msgMigrated, msgDrain:
		w.i(int64(env.Count))
	case msgAbsorb:
		w.i(int64(env.Node))
		w.counters(env.Counters)
		w.u(uint64(len(env.PerJob)))
		for _, job := range sortedKeys(env.PerJob) {
			w.u(job)
			w.counters(env.PerJob[job])
		}
	default:
		return fmt.Errorf("unknown frame kind %d", uint8(env.Kind))
	}
	return nil
}

// agent writes an agent as a recCkpt record's fields: the msgAgent frame
// body and the accepted-agent log record are one encoding.
func (w *recBuf) agent(a *agentMsg) error {
	if a == nil {
		return errors.New("no agent")
	}
	w.agentHead(a.ID, a.Hop, a.Job, a.Behavior)
	return w.payload(a.State, a.enc)
}

// bodyPool recycles readFrame's body buffers for frames up to
// maxPooledBuf; oversized bodies stay one-shot allocations returned to
// the GC, so the pool's footprint is bounded no matter what the peer
// sends.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func getBodyBuf(n int) *[]byte {
	if n > maxPooledBuf {
		b := make([]byte, n)
		return &b
	}
	bp := bodyPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBodyBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	bodyPool.Put(bp)
}

// readBody reads one frame's body from a connection's buffered reader
// into a pooled buffer, which the caller returns with putBodyBuf once it
// has decoded the body. The decoder copies every byte it keeps (strings,
// payloads), so the buffer is safe to recycle as soon as decoding ends.
func readBody(r *bufio.Reader) (*[]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	bp := getBodyBuf(int(size))
	if _, err := io.ReadFull(r, *bp); err != nil {
		putBodyBuf(bp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bp, nil
}

// readFrame reads and decodes one frame.
func readFrame(r *bufio.Reader) (*envelope, error) {
	bp, err := readBody(r)
	if err != nil {
		return nil, err
	}
	defer putBodyBuf(bp)
	return decodeBody(*bp)
}

// decodeFrame decodes one complete frame from a byte slice. It is the
// network-facing decoder's core and the fuzz target: truncated or
// corrupted input must yield an error, never a panic.
func decodeFrame(data []byte) (*envelope, error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errBadFramePrefix
	}
	if size > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	body := data[n:]
	if uint64(len(body)) < size {
		return nil, io.ErrUnexpectedEOF
	}
	return decodeBody(body[:size])
}

// decodeBody decodes a frame body: the mirror of encode. Every read is
// bounds-checked and every count is checked against the bytes left
// before anything is allocated for it, so hostile input ends in an
// error. Payloads are decoded too, and the envelope keeps a private
// copy of the bytes a receiver stores — agent state and a setvar's
// value; body itself may be a recycled buffer.
func decodeBody(body []byte) (*envelope, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("wire: frame body of %d bytes", len(body))
	}
	if body[0] != frameVersion {
		return nil, fmt.Errorf("wire: frame version %d not supported (this build speaks version %d)", body[0], frameVersion)
	}
	env := &envelope{Kind: msgKind(body[1])}
	r := &recReader{b: body[2:]}
	switch env.Kind {
	case msgAgent:
		env.Agent = r.agent()
	case msgInject:
		env.Job = r.u()
		env.Agent = r.agent()
	case msgAck:
		env.Ack.ID, env.Ack.Hop = r.u(), r.u()
		flags := r.u()
		if flags&^(ackDup|ackRefused) != 0 {
			r.fail("unknown ack flag bits %#x", flags)
		}
		env.Ack.Dup, env.Ack.Refused = flags&ackDup != 0, flags&ackRefused != 0
	case msgSnapshot, msgCancel, msgFree, msgFreeze, msgThaw:
		env.Job = r.u()
	case msgCounters:
		env.Counters = r.counters()
		env.Job = r.u()
	case msgPing, msgPong, msgShutdown:
	case msgJoin:
		env.Addr = r.str()
	case msgMembers:
		if n := r.count(1); n > 0 {
			env.Members = make([]string, n)
			for i := range env.Members {
				env.Members[i] = r.str()
			}
		}
		env.You = r.int()
	case msgLeave:
		env.Node = r.int()
	case msgSetVar:
		env.Name = r.str()
		env.Value, env.valueEnc = r.payload(true)
	case msgGetVar, msgClear:
		env.Name = r.str()
	case msgVar:
		env.Err = r.str()
		env.Value, _ = r.payload(false) // the caller keeps only the value
	case msgOK:
		env.Err = r.str()
	case msgMigrate:
		env.Node, env.Job, env.Count = r.int(), r.u(), r.int()
	case msgMigrated, msgDrain:
		env.Count = r.int()
	case msgAbsorb:
		env.Node, env.Counters = r.int(), r.counters()
		// An entry is at least a one-byte job and four one-byte counters.
		if n := r.count(5); n > 0 {
			env.PerJob = make(map[uint64]counters, n)
			for i := 0; i < n && r.err == nil; i++ {
				job := r.u()
				env.PerJob[job] = r.counters()
			}
		}
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", body[1])
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode %s frame: %w", env.Kind, r.err)
	}
	if err := env.validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// agent reads an agent written by recBuf.agent, decoding its state.
func (r *recReader) agent() *agentMsg {
	a := &agentMsg{}
	a.ID, a.Hop, a.Job, a.Behavior = r.agentHead()
	a.State, a.enc = r.payload(true)
	return a
}

// validate enforces the frame's semantic invariants after decoding.
func (env *envelope) validate() error {
	switch env.Kind {
	case msgAgent, msgInject:
		if env.Agent == nil {
			return fmt.Errorf("wire: %s frame without an agent", env.Kind)
		}
		if env.Agent.Behavior == "" {
			return fmt.Errorf("wire: %s frame without a behavior name", env.Kind)
		}
	case msgJoin:
		// Empty Addr is the observer form ("send me the members").
		if env.Addr != "" {
			if err := validateAddr(env.Addr); err != nil {
				return err
			}
		}
	case msgMembers:
		if len(env.Members) == 0 {
			return errors.New("wire: members frame with an empty list")
		}
		if err := validateMembers(env.Members); err != nil {
			return err
		}
		if env.You < -1 || env.You >= len(env.Members) {
			return fmt.Errorf("wire: members frame assigns id %d of %d", env.You, len(env.Members))
		}
	case msgLeave:
		if env.Node < 0 {
			return fmt.Errorf("wire: leave frame for negative node %d", env.Node)
		}
	case msgSetVar, msgGetVar, msgClear:
		if env.Name == "" {
			return fmt.Errorf("wire: %s frame without a name", env.Kind)
		}
	case msgCancel, msgFree:
		if env.Job == 0 {
			return fmt.Errorf("wire: %s frame for the default namespace", env.Kind)
		}
	case msgFreeze, msgThaw:
		if env.Job == 0 {
			return fmt.Errorf("wire: %s frame for the default namespace", env.Kind)
		}
	case msgMigrate:
		if env.Node < 0 {
			return fmt.Errorf("wire: migrate frame to negative node %d", env.Node)
		}
		if env.Count < 0 {
			return fmt.Errorf("wire: migrate frame with negative count %d", env.Count)
		}
	case msgMigrated:
		if env.Count < 0 {
			return fmt.Errorf("wire: migrated reply with negative count %d", env.Count)
		}
	case msgDrain:
		if env.Count < 0 {
			return fmt.Errorf("wire: drain frame with negative timeout %d", env.Count)
		}
	case msgAbsorb:
		if env.Node < 0 {
			return fmt.Errorf("wire: absorb frame from negative node %d", env.Node)
		}
	case msgAck, msgSnapshot, msgCounters, msgPing, msgPong, msgShutdown, msgVar, msgOK:
	default:
		return fmt.Errorf("wire: unknown frame kind %d", uint8(env.Kind))
	}
	return nil
}
