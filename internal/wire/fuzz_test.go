package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// kindExamples is one well-formed envelope per message kind, payloads
// included where the kind carries one.
func kindExamples() []*envelope {
	return []*envelope{
		{Kind: msgAgent, Agent: &agentMsg{ID: 1<<40 | 7, Hop: 3, Job: 4, Behavior: "ring", State: &goldenState{Step: 2, Vals: []float64{0.5}}}},
		{Kind: msgAck, Ack: ackMsg{ID: 9, Hop: 1, Dup: true}},
		{Kind: msgSnapshot, Job: 7},
		{Kind: msgCounters, Counters: counters{Created: 4, Finished: 4, Sent: 12, Received: 12}},
		{Kind: msgPing},
		{Kind: msgPong},
		{Kind: msgShutdown},
		{Kind: msgJoin, Addr: "127.0.0.1:9001"},
		{Kind: msgMembers, Members: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, You: 1},
		{Kind: msgLeave, Node: 2},
		{Kind: msgInject, Job: 77, Agent: &agentMsg{Behavior: "ring"}},
		{Kind: msgSetVar, Name: "x", Value: int64(42)},
		{Kind: msgGetVar, Name: "x"},
		{Kind: msgVar, Value: "hello"},
		{Kind: msgCancel, Job: 3},
		{Kind: msgFree, Job: 3},
		{Kind: msgClear, Name: "job.3."},
		{Kind: msgOK, Err: "wire: nope"},
		{Kind: msgMigrate, Node: 1, Job: 7, Count: 2},
		{Kind: msgMigrated, Count: 2},
		{Kind: msgDrain, Count: 5000},
		{Kind: msgAbsorb, Node: 2, Counters: counters{Created: 3, Finished: 3, Sent: 9, Received: 9},
			PerJob: map[uint64]counters{7: {Created: 3, Finished: 3, Sent: 9, Received: 9}}},
		{Kind: msgFreeze, Job: 7},
		{Kind: msgThaw, Job: 7},
	}
}

// fuzzSeeds builds one well-formed frame per message kind plus a few
// variants and classic malformations; they seed both the fuzzer and the
// regression tests below, alongside the checked-in corpus under
// testdata/fuzz.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	envs := kindExamples()
	covered := map[msgKind]bool{}
	for _, env := range envs {
		covered[env.Kind] = true
	}
	for k := msgKind(1); k < numMsgKinds; k++ {
		if !covered[k] {
			t.Fatalf("no fuzz seed for frame kind %s", k)
		}
	}
	envs = append(envs,
		&envelope{Kind: msgJoin}, // observer query
		&envelope{Kind: msgMembers, Members: []string{"127.0.0.1:9001"}, You: -1},
		&envelope{Kind: msgAck, Ack: ackMsg{ID: 9, Hop: 2, Refused: true}}, // tombstone-shell refusal
		&envelope{Kind: msgSetVar, Name: "nil"},                            // empty payload
	)
	var seeds [][]byte
	for _, env := range envs {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), f.bytes()...))
		f.release()
	}
	valid := seeds[0]
	seeds = append(seeds,
		nil,                      // empty input
		valid[:len(valid)/2],     // truncated body
		valid[:1],                // truncated prefix
		[]byte{0x80, 0x80, 0x80}, // unterminated uvarint
		append(binary.AppendUvarint(nil, maxFrameBytes+1), valid...), // oversize claim
	)
	// Single-byte corruptions of a valid frame.
	for _, i := range []int{0, 1, 2, len(valid) / 2, len(valid) - 1} {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		seeds = append(seeds, c)
	}
	return seeds
}

// FuzzDecodeFrame is the decoder robustness fuzz target: any byte string
// must produce either a valid envelope or an error — never a panic, and
// never an envelope violating the frame invariants. A frame that decodes
// must re-encode (the round trip a retransmission depends on) to a frame
// that decodes to the same envelope.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeFrame(data)
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope without error")
		}
		if verr := env.validate(); verr != nil {
			t.Fatalf("decoder returned invalid envelope: %v", verr)
		}
		fr, err := encodeFrame(env)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		defer fr.release()
		again, err := decodeFrame(fr.bytes())
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if d := envDiff(again, env); d != "" {
			t.Fatalf("re-encoded frame decodes differently: %s", d)
		}
	})
}

func TestDecodeFrameRoundTrip(t *testing.T) {
	env := &envelope{Kind: msgAgent, Agent: &agentMsg{ID: 42, Hop: 5, Behavior: "dot"}}
	f, err := encodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	got, err := decodeFrame(f.bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Agent.ID != 42 || got.Agent.Hop != 5 || got.Agent.Behavior != "dot" {
		t.Fatalf("round trip lost fields: %+v", got.Agent)
	}
}

func TestDecodeFrameRejectsOversizePrefix(t *testing.T) {
	data := binary.AppendUvarint(nil, maxFrameBytes+1)
	data = append(data, bytes.Repeat([]byte{0}, 16)...)
	if _, err := decodeFrame(data); err != errFrameTooLarge {
		t.Fatalf("err = %v, want %v", err, errFrameTooLarge)
	}
}

// TestDecodeFrameRejectsTruncation cuts a frame of every kind at every
// byte: each cut must be refused (a body is only valid whole — trailing
// or missing bytes are both errors).
func TestDecodeFrameRejectsTruncation(t *testing.T) {
	for _, env := range kindExamples() {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		frame := f.bytes()
		for cut := 0; cut < len(frame); cut++ {
			if _, err := decodeFrame(frame[:cut]); err == nil {
				t.Fatalf("%s frame truncated to %d of %d bytes accepted", env.Kind, cut, len(frame))
			}
			// The same cut with a corrected length prefix: the body
			// itself is short.
			body := frame[headerLen(frame):]
			if cut < len(body) {
				short := binary.AppendUvarint(nil, uint64(cut))
				if _, err := decodeFrame(append(short, body[:cut]...)); err == nil {
					t.Fatalf("%s frame body cut to %d of %d bytes accepted", env.Kind, cut, len(body))
				}
			}
		}
		f.release()
	}
}

// headerLen is the length of a frame's uvarint prefix.
func headerLen(frame []byte) int {
	_, n := binary.Uvarint(frame)
	return n
}

func TestDecodeFrameRejectsUnknownKind(t *testing.T) {
	for _, kind := range []byte{0, byte(numMsgKinds), 0xff} {
		data := binary.AppendUvarint(nil, 2)
		data = append(data, frameVersion, kind)
		if _, err := decodeFrame(data); err == nil {
			t.Fatalf("frame kind %d accepted", kind)
		}
	}
	if _, err := encodeFrame(&envelope{Kind: numMsgKinds}); err == nil {
		t.Fatal("unknown frame kind encoded")
	}
}

func TestDecodeFrameRejectsAgentWithoutBehavior(t *testing.T) {
	f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: &agentMsg{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if _, err := decodeFrame(f.bytes()); err == nil {
		t.Fatal("agent frame without behavior accepted")
	}
}

// FuzzParseSeeds fuzzes the seed-list parser — operator-supplied text
// handed to every daemon at boot. Accepted output must satisfy the
// member-list invariants and survive the Format/Parse round trip.
func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{
		"127.0.0.1:7001\n127.0.0.1:7002\n",
		"a:1, b:2 # trailing\n# full-line comment\nc:3",
		"", "a:1\na:1", "[::1]:80\nhost.example:443",
		"bad addr:1", "a:1,,,\n\n#\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		addrs, err := ParseSeeds(text)
		if err != nil {
			return
		}
		if len(addrs) == 0 {
			t.Fatal("ParseSeeds returned an empty list without error")
		}
		if verr := validateMembers(addrs); verr != nil {
			t.Fatalf("ParseSeeds accepted an invalid list: %v", verr)
		}
		round, rerr := ParseSeeds(FormatSeeds(addrs))
		if rerr != nil {
			t.Fatalf("Format/Parse round trip failed: %v", rerr)
		}
		if len(round) != len(addrs) {
			t.Fatalf("round trip changed length: %d != %d", len(round), len(addrs))
		}
		for i := range addrs {
			if round[i] != addrs[i] {
				t.Fatalf("round trip changed entry %d: %q != %q", i, round[i], addrs[i])
			}
		}
	})
}

// FuzzMembershipUpdate fuzzes the join/leave/update handshake state
// machine with an arbitrary interleaving of operations, checking the
// stability invariant afterwards: an index, once assigned, never maps
// to a different address.
func FuzzMembershipUpdate(f *testing.F) {
	f.Add("j127.0.0.1:1\nj127.0.0.1:2\nl1\nu127.0.0.1:1,127.0.0.1:2,127.0.0.1:3")
	f.Add("u1:1\nj1:1\nl0\nj1:1")
	f.Add("jx\nu\nl-1")
	f.Fuzz(func(t *testing.T, script string) {
		m := newMembership(nil)
		assigned := map[int]string{} // index → address, pinned at first sight
		record := func() {
			for i, a := range m.list() {
				if prev, ok := assigned[i]; ok && prev != a {
					t.Fatalf("index %d remapped from %q to %q", i, prev, a)
				} else if !ok {
					assigned[i] = a
				}
			}
		}
		for _, line := range strings.Split(script, "\n") {
			if line == "" {
				continue
			}
			op, arg := line[0], line[1:]
			switch op {
			case 'j':
				if id, err := m.add(arg); err == nil {
					if got, _ := m.addr(id); got != arg {
						t.Fatalf("add(%q) = %d but addr(%d) = %q", arg, id, id, got)
					}
				}
			case 'u':
				m.update(strings.Split(arg, ","))
			case 'l':
				if n, err := strconv.Atoi(arg); err == nil {
					m.leave(n)
				}
			}
			record()
		}
	})
}

// TestFuzzSeedsNeverPanic runs every seed through the target directly, so
// the corpus is exercised on plain `go test` runs too (the fuzz engine
// only replays it under -fuzz / in its own target run).
func TestFuzzSeedsNeverPanic(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		if env, err := decodeFrame(seed); err == nil && env == nil {
			t.Fatalf("seed %d: nil envelope without error", i)
		}
	}
}

// nodeLogSeeds builds one well-formed node log per record kind (header
// plus one batch holding that record, preceded by what it needs to be
// valid), then a torn and a garbled copy of the richest one.
func nodeLogSeeds(t testing.TB) [][]byte {
	t.Helper()
	enc, err := encodeState(int64(42))
	if err != nil {
		t.Fatal(err)
	}
	records := map[recKind]func(b *recBuf){
		recTotals: func(b *recBuf) {
			b.kind(recTotals)
			b.counters(counters{Created: 3, Finished: 2, Sent: 5, Received: 4})
			b.u(9)
			b.i(7)
		},
		recJob:        func(b *recBuf) { b.key(recJob, 7); b.counters(counters{Created: 1, Sent: 1}) },
		recJobDel:     func(b *recBuf) { b.key(recJobDel, 7) },
		recCkpt:       func(b *recBuf) { b.ckpt(1<<40|3, &checkpoint{behavior: "ring", hop: 2, job: 7, state: enc}) },
		recCkptDel:    func(b *recBuf) { b.key(recCkptDel, 1<<40|3) },
		recLastHop:    func(b *recBuf) { b.key(recLastHop, 1<<40|3); b.u(2) },
		recLastHopDel: func(b *recBuf) { b.key(recLastHopDel, 1<<40|3) },
		recRetired:    func(b *recBuf) { b.key(recRetired, 1<<40|3); b.u(2) },
		recRetiredPop: func(b *recBuf) {
			b.key(recRetired, 1<<40|3)
			b.u(2)
			b.key(recRetiredPop, 1)
		},
		recMigration:    func(b *recBuf) { b.key(recMigration, 1<<40|3); b.u(1) },
		recMigrationDel: func(b *recBuf) { b.key(recMigrationDel, 1<<40|3) },
		recReroute:      func(b *recBuf) { b.key(recReroute, 1<<40|3); b.u(2) },
		recRerouteDel:   func(b *recBuf) { b.key(recRerouteDel, 1<<40|3) },
		recFreeze:       func(b *recBuf) { b.key(recFreeze, 7) },
		recThaw:         func(b *recBuf) { b.key(recThaw, 7) },
		recFlags:        func(b *recBuf) { b.kind(recFlags); b.u(flagDraining | flagEvacuated); b.u(2) },
		recAbsorbed:     func(b *recBuf) { b.kind(recAbsorbed); b.i(3) },
		recVar:          func(b *recBuf) { b.kind(recVar); b.str("job.7.x"); b.bytes(enc) },
		recVarDelPrefix: func(b *recBuf) { b.kind(recVarDelPrefix); b.str("job.7.") },
		recCancel:       func(b *recBuf) { b.key(recCancel, 7) },
		recCancelDel:    func(b *recBuf) { b.key(recCancelDel, 7) },
	}
	header := append([]byte(logMagic), 0, 0, 0, 0)
	batch := func(write func(b *recBuf)) []byte {
		b := &recBuf{b: make([]byte, batchHeaderLen)}
		write(b)
		sealBatch(b.b)
		return b.b
	}
	var seeds [][]byte
	all := append([]byte(nil), header...)
	for k := recKind(1); k < numRecKinds; k++ {
		write, ok := records[k]
		if !ok {
			t.Fatalf("no fuzz seed for record kind %d", k)
		}
		seeds = append(seeds, append(append([]byte(nil), header...), batch(write)...))
		all = append(all, batch(write)...)
	}
	garbled := append([]byte(nil), all...)
	garbled[len(garbled)/2] ^= 0x5a
	return append(seeds, all, all[:len(all)-3], garbled, header, []byte(logMagic))
}

// FuzzLoadNodeLog: hostile or torn log bytes return an error or load a
// valid prefix state — one that compacts and reloads to itself — and
// never panic.
func FuzzLoadNodeLog(f *testing.F) {
	for _, seed := range nodeLogSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ns := newTestNode(0)
		if err := loadNodeLog(data, ns); err != nil {
			return
		}
		b := &recBuf{b: append([]byte(logMagic), 0, 0, 0, 0)}
		b.b = append(b.b, make([]byte, batchHeaderLen)...)
		if err := ns.snapshotRecords(b); err != nil {
			t.Fatalf("loaded state does not compact: %v", err)
		}
		sealBatch(b.b[logHeaderLen:])
		again := newTestNode(0)
		if err := loadNodeLog(b.b, again); err != nil {
			t.Fatalf("compacted image of a loaded state does not load: %v", err)
		}
		if got, want := viewOf(again), viewOf(ns); !reflect.DeepEqual(got, want) {
			t.Fatalf("compacted reload differs:\n got %+v\nwant %+v", got, want)
		}
	})
}
