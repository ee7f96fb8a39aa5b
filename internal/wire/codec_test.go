package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// goldenState is a plain struct payload of the kind control and hop
// traffic carries.
type goldenState struct {
	Step int
	Vals []float64
}

func init() { gob.RegisterName("repro/internal/wire.goldenState", &goldenState{}) }

// goldenStateHex is encodeState(&goldenState{4, {1.5, -2.25, 3.125}}),
// recorded once. Payload bytes are pinned rather than re-encoded because
// gob numbers types process-globally: a fresh encode's bytes depend on
// what the process encoded before, while any recorded stream decodes.
const goldenStateHex = "1b7f030101087374617465426f7801ff8000010101015601100000004fff80011f726570726f2f696e7465726e616c2f776972652e676f6c64656e5374617465ff810301010b676f6c64656e537461746501ff82000102010453746570010400010456616c7301ff8400000017ff83020101095b5d666c6f6174363401ff84000108000012ff820e01080103fef83ffe02c0fe09400000"

func goldenValue() *goldenState { return &goldenState{Step: 4, Vals: []float64{1.5, -2.25, 3.125}} }

func goldenStateBytes(t testing.TB) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenStateHex)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenFrames pins the frame layout behind the version byte: each
// envelope must encode to exactly its recorded frame, and the recorded
// frame must decode back to the envelope (payload value included).
type goldenFrame struct {
	name string
	env  *envelope
	hex  string
}

func goldenFrames(t testing.TB) []goldenFrame {
	enc := goldenStateBytes(t)
	return []goldenFrame{
		{"agent", &envelope{Kind: msgAgent, Agent: &agentMsg{
			ID: 5<<40 | 11, Hop: 2, Job: 9, Behavior: "golden", State: goldenValue(), enc: enc}},
			"ab01" + "0101" + "8b80808080a001" + "02" + "09" + "06676f6c64656e" + "9701" + goldenStateHex},
		{"inject", &envelope{Kind: msgInject, Job: 77, Agent: &agentMsg{
			Behavior: "ring", State: goldenValue(), enc: enc}},
			"a401" + "010b" + "4d" + "000000" + "0472696e67" + "9701" + goldenStateHex},
		{"ack", &envelope{Kind: msgAck, Ack: ackMsg{ID: 5<<40 | 11, Hop: 3, Dup: true}},
			"0b" + "0102" + "8b80808080a001" + "03" + "01"},
		{"var", &envelope{Kind: msgVar, Value: goldenValue(), valueEnc: enc},
			"9c01" + "010e" + "00" + "9701" + goldenStateHex},
		{"counters", &envelope{Kind: msgCounters, Job: 77,
			Counters: counters{Created: 4, Finished: 3, Sent: 12, Received: -1}},
			"07" + "0104" + "08061801" + "4d"},
		{"members", &envelope{Kind: msgMembers, Members: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, You: 1},
			"22" + "0109" + "02" + "0e3132372e302e302e313a39303031" + "0e3132372e302e302e313a39303032" + "02"},
	}
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames(t) {
		t.Run(g.name, func(t *testing.T) {
			f, err := encodeFrame(g.env)
			if err != nil {
				t.Fatal(err)
			}
			defer f.release()
			if got := hex.EncodeToString(f.bytes()); got != g.hex {
				t.Fatalf("frame layout drifted:\n got %s\nwant %s", got, g.hex)
			}
			raw, _ := hex.DecodeString(g.hex)
			env, err := decodeFrame(raw)
			if err != nil {
				t.Fatalf("golden frame does not decode: %v", err)
			}
			if d := envDiff(env, g.env); d != "" {
				t.Fatal(d)
			}
			if env.Agent != nil && !reflect.DeepEqual(env.Agent.State, goldenValue()) {
				t.Fatalf("decoded state %+v", env.Agent.State)
			}
			if g.env.Value != nil && !reflect.DeepEqual(env.Value, goldenValue()) {
				t.Fatalf("decoded value %+v", env.Value)
			}
		})
	}
}

// gobEraFrameHex is a frame recorded before the binary codec, when a
// frame body was one self-contained gob stream of the envelope: an agent
// (ID 5<<40|11, hop 2, behavior "golden") carrying a goldenState.
const gobEraFrameHex = "8a03407f03010108656e76656c6f706501ff8000010401044b696e64010c0001054167656e7401ff8200010341636b01ff84000108436f756e7465727301ff860000003cff81030101086167656e744d736701ff82000104010249440106000103486f7001060001084265686176696f72010c000105537461746501100000002bff830301010661636b4d736701ff84000103010249440106000103486f700106000103447570010200000045ff8503010108636f756e7465727301ff86000104010743726561746564010400010846696e6973686564010400010453656e7401040001085265636569766564010400000069ff8001056167656e740101fa05000000000b01020106676f6c64656e011f726570726f2f696e7465726e616c2f776972652e676f6c64656e5374617465ff870301010b676f6c64656e537461746501ff88000102010453746570010400010456616c7301ff8a00000017ff89020101095b5d666c6f6174363401ff8a000108000017ff880e01080103fef83ffe02c0fe094000000100010000"

// TestGobEraFrameRefused: a frame from a build that spoke gob envelopes
// is refused, with an error naming the version byte it carried.
func TestGobEraFrameRefused(t *testing.T) {
	raw, err := hex.DecodeString(gobEraFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeFrame(raw)
	if err == nil {
		t.Fatal("gob-era frame accepted")
	}
	if want := fmt.Sprintf("frame version %d not supported", raw[2]); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}

// TestAgentFrameBodyIsCheckpointRecord: the msgAgent body after its
// version and kind bytes is byte-for-byte the recCkpt log record after
// its kind byte — one encoding for the agent on the wire and on disk.
func TestAgentFrameBodyIsCheckpointRecord(t *testing.T) {
	enc := goldenStateBytes(t)
	a := &agentMsg{ID: 3<<40 | 8, Hop: 6, Job: 12, Behavior: "carrier", State: goldenValue(), enc: enc}
	f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: a})
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	frame := f.bytes()
	body := frame[headerLen(frame)+2:]
	rec := &recBuf{}
	rec.ckpt(a.ID, &checkpoint{behavior: a.Behavior, hop: a.Hop, job: a.Job, state: enc})
	if !bytes.Equal(body, rec.b[1:]) {
		t.Fatalf("agent frame body and checkpoint record differ:\nframe  %x\nrecord %x", body, rec.b[1:])
	}
}

// envDiff describes how got differs from want, or returns "". Payloads
// compare by their bytes when both sides hold them (a retransmission
// ships exactly those bytes) and by value otherwise.
func envDiff(got, want *envelope) string {
	g, w := *got, *want
	if d := payloadDiff(g.Value, g.valueEnc, w.Value, w.valueEnc); d != "" {
		return "value: " + d
	}
	g.Value, g.valueEnc, w.Value, w.valueEnc = nil, nil, nil, nil
	if (g.Agent == nil) != (w.Agent == nil) {
		return fmt.Sprintf("agent %+v, want %+v", g.Agent, w.Agent)
	}
	if g.Agent != nil {
		ga, wa := *g.Agent, *w.Agent
		if d := payloadDiff(ga.State, ga.enc, wa.State, wa.enc); d != "" {
			return "agent state: " + d
		}
		ga.State, ga.enc, wa.State, wa.enc = nil, nil, nil, nil
		if !reflect.DeepEqual(ga, wa) {
			return fmt.Sprintf("agent %+v, want %+v", ga, wa)
		}
		g.Agent, w.Agent = nil, nil
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("envelope %+v, want %+v", g, w)
	}
	return ""
}

func payloadDiff(gv any, genc []byte, wv any, wenc []byte) string {
	if genc != nil && wenc != nil {
		if !bytes.Equal(genc, wenc) {
			return fmt.Sprintf("bytes %x, want %x", genc, wenc)
		}
		return ""
	}
	if !reflect.DeepEqual(gv, wv) {
		return fmt.Sprintf("%#v, want %#v", gv, wv)
	}
	return ""
}

// randEnvelope builds a random well-formed envelope of kind k, setting
// exactly the fields the kind carries.
func randEnvelope(r *rand.Rand, k msgKind) *envelope {
	u := func() uint64 {
		if r.Intn(2) == 0 {
			return uint64(r.Intn(300))
		}
		return r.Uint64()
	}
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(' ' + r.Intn(95))
		}
		return string(b)
	}
	cnt := func() counters {
		return counters{Created: r.Int63() - r.Int63(), Finished: r.Int63n(1000), Sent: -r.Int63n(5), Received: r.Int63()}
	}
	agent := func() *agentMsg {
		return &agentMsg{ID: u(), Hop: u(), Job: u(), Behavior: str(1 + r.Intn(20)), State: randPayload(r)}
	}
	env := &envelope{Kind: k}
	switch k {
	case msgAgent:
		env.Agent = agent()
	case msgInject:
		env.Job, env.Agent = u(), agent()
	case msgAck:
		env.Ack = ackMsg{ID: u(), Hop: u(), Dup: r.Intn(2) == 0, Refused: r.Intn(2) == 0}
	case msgSnapshot:
		env.Job = u()
	case msgCancel, msgFree, msgFreeze, msgThaw:
		env.Job = 1 + u()/2
	case msgCounters:
		env.Counters, env.Job = cnt(), u()
	case msgPing, msgPong, msgShutdown:
	case msgJoin:
		if r.Intn(3) > 0 {
			env.Addr = fmt.Sprintf("10.0.%d.%d:%d", r.Intn(256), r.Intn(256), 1+r.Intn(65535))
		}
	case msgMembers:
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			env.Members = append(env.Members, fmt.Sprintf("host-%d.example:%d", i, 1+r.Intn(65535)))
		}
		env.You = r.Intn(n+1) - 1
	case msgLeave:
		env.Node = r.Intn(1 << 20)
	case msgSetVar:
		env.Name, env.Value = str(1+r.Intn(30)), randPayload(r)
	case msgGetVar, msgClear:
		env.Name = str(1 + r.Intn(30))
	case msgVar:
		if r.Intn(3) == 0 {
			env.Err = str(r.Intn(40))
		}
		env.Value = randPayload(r)
	case msgOK:
		env.Err = str(r.Intn(2) * r.Intn(80))
	case msgMigrate:
		env.Node, env.Job, env.Count = r.Intn(64), u(), r.Intn(1000)
	case msgMigrated:
		env.Count = r.Intn(1000)
	case msgDrain:
		env.Count = r.Intn(1 << 30)
	case msgAbsorb:
		env.Node, env.Counters = r.Intn(64), cnt()
		if n := r.Intn(4); n > 0 {
			env.PerJob = map[uint64]counters{}
			for i := 0; i < n; i++ {
				env.PerJob[u()] = cnt()
			}
		}
	}
	return env
}

// randPayload returns a random registered value, or nil.
func randPayload(r *rand.Rand) any {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Int63() - r.Int63()
	case 2:
		return fmt.Sprintf("v%d", r.Intn(1e6))
	case 3:
		st := &goldenState{Step: r.Intn(100)}
		for i := r.Intn(5); i > 0; i-- {
			st.Vals = append(st.Vals, r.NormFloat64())
		}
		return st
	case 4:
		return &benchState{Remaining: r.Intn(50)}
	default:
		blk := matrix.NewBlock(r.Intn(3), r.Intn(3), 1+r.Intn(4), 1+r.Intn(4))
		for i := range blk.Data {
			blk.Data[i] = r.NormFloat64()
		}
		return &benchBlockState{Row: r.Intn(9), Blk: blk}
	}
}

// TestFrameRoundTripProperty: for seeded random envelopes of every kind,
// decode(encode(env)) equals env.
func TestFrameRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for k := msgKind(1); k < numMsgKinds; k++ {
		for i := 0; i < 60; i++ {
			env := randEnvelope(r, k)
			f, err := encodeFrame(env)
			if err != nil {
				t.Fatalf("%s #%d: encode: %v", k, i, err)
			}
			got, err := decodeFrame(f.bytes())
			f.release()
			if err != nil {
				t.Fatalf("%s #%d: decode: %v", k, i, err)
			}
			if d := envDiff(got, env); d != "" {
				t.Fatalf("%s #%d: %s", k, i, d)
			}
		}
	}
	for _, k := range []msgKind{msgAgent, msgInject} {
		if _, err := encodeFrame(&envelope{Kind: k}); err == nil {
			t.Fatalf("%s frame without an agent encoded", k)
		}
	}
}

// TestCheckpointSurvivesBodyBufferReuse: an accepted agent's checkpoint
// holds the frame decoder's private copy of the state bytes, not a view
// into the pooled body buffer — decoding the next frame through the same
// recycled buffer must leave it intact.
func TestCheckpointSurvivesBodyBufferReuse(t *testing.T) {
	mk := func(id uint64, step int, v float64) *envelope {
		return &envelope{Kind: msgAgent, Agent: &agentMsg{ID: id, Hop: 1, Job: 3, Behavior: "ring",
			State: &goldenState{Step: step, Vals: []float64{v, v, v, v}}}}
	}
	var stream bytes.Buffer
	for _, env := range []*envelope{mk(1<<40|1, 1, 1.5), mk(1<<40|2, 2, -7.25)} {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(f.bytes())
		f.release()
	}
	r := bufio.NewReader(&stream)
	a, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodeState(0, newWireMetrics(nil), 1024, newCancelSet())
	if dup, _, err := ns.accept(a.Agent); err != nil || dup {
		t.Fatalf("accept = (dup %v, %v)", dup, err)
	}
	if a.Agent.enc != nil {
		t.Fatal("accept left the frame bytes on the message")
	}
	ckpt := ns.ckpt[a.Agent.ID].state
	want := bytes.Clone(ckpt)
	if _, err := readFrame(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, want) {
		t.Fatal("checkpoint bytes changed when the next frame was decoded")
	}
	v, err := decodeState(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, &goldenState{Step: 1, Vals: []float64{1.5, 1.5, 1.5, 1.5}}) {
		t.Fatalf("checkpoint decodes to %+v", v)
	}
}

// TestSetVarKeepsFrameBytes: a logged node stores a setvar frame's
// payload bytes as the variable's encoding, and a getvar reply ships
// them as they are — no re-encode on either side.
func TestSetVarKeepsFrameBytes(t *testing.T) {
	ns := newTestNode(0)
	if _, err := openNodeLog(t.TempDir(), ns); err != nil {
		t.Fatal(err)
	}
	defer ns.persist.close()
	f, err := encodeFrame(&envelope{Kind: msgSetVar, Name: "job.1.B", Value: goldenValue()})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(f.bytes())
	f.release()
	if err != nil {
		t.Fatal(err)
	}
	ns.vars.put(env.Name, env.Value, env.valueEnc)
	v, enc := ns.vars.getEncoded("job.1.B")
	if &enc[0] != &env.valueEnc[0] || !reflect.DeepEqual(v, goldenValue()) {
		t.Fatal("logged variable does not keep the frame's payload bytes")
	}
	reply, err := encodeFrame(&envelope{Kind: msgVar, Value: v, valueEnc: enc})
	if err != nil {
		t.Fatal(err)
	}
	defer reply.release()
	if !bytes.HasSuffix(reply.bytes(), enc) {
		t.Fatal("getvar reply does not ship the stored encoding")
	}
}

// TestVarReplyDecodesOutOfRecycledBuffer: a getvar reply keeps only its
// value — no copy of the payload bytes — and the value owns its memory,
// so reading the next frame through the same recycled body buffer
// leaves it intact.
func TestVarReplyDecodesOutOfRecycledBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, v := range []float64{2.5, -9} {
		f, err := encodeFrame(&envelope{Kind: msgVar, Value: &goldenState{Step: 1, Vals: []float64{v, v}}})
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(f.bytes())
		f.release()
	}
	r := bufio.NewReader(&stream)
	a, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.valueEnc != nil {
		t.Fatal("a var reply kept a copy of its payload bytes")
	}
	if _, err := readFrame(r); err != nil {
		t.Fatal(err)
	}
	if want := (&goldenState{Step: 1, Vals: []float64{2.5, 2.5}}); !reflect.DeepEqual(a.Value, want) {
		t.Fatalf("var reply value changed to %+v when the next frame was decoded", a.Value)
	}
}

// TestControlFrameDecodeAllocs pins the payload-free decode: the
// envelope itself, nothing per field.
func TestControlFrameDecodeAllocs(t *testing.T) {
	data, err := BenchControlFrameBytes()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := BenchDecodeFrame(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("control frame decode makes %v allocations, want ≤ 4", allocs)
	}
}

// TestBlockFrameRoundTrip sends a Block-carrying state through the full
// frame codec (the slab GobEncoder path) and checks bit-exact element
// recovery, NaN payloads included.
func TestBlockFrameRoundTrip(t *testing.T) {
	blk := matrix.NewBlock(1, 0, 5, 7)
	for i := range blk.Data {
		blk.Data[i] = float64(i) * 1.25
	}
	blk.Data[3] = math.Float64frombits(0x7ff8000000000abc)
	blk.Data[17] = math.Inf(-1)
	st := &benchBlockState{Row: 9, Blk: blk}

	data, err := BenchFrameBytes(st)
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Agent.State.(*benchBlockState)
	if !ok {
		t.Fatalf("state decoded as %T", env.Agent.State)
	}
	if got.Row != 9 || got.Blk.Rows != 5 || got.Blk.Cols != 7 || got.Blk.BR != 1 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range blk.Data {
		if math.Float64bits(got.Blk.Data[i]) != math.Float64bits(blk.Data[i]) {
			t.Fatalf("element %d: %x != %x", i,
				math.Float64bits(got.Blk.Data[i]), math.Float64bits(blk.Data[i]))
		}
	}
}

// TestBlockCheckpointReplay runs a Block-carrying agent through the
// checkpoint store's inject → replay cycle: the snapshot codec and the
// slab codec must compose so a daemon restart reconstructs the block
// exactly.
func TestBlockCheckpointReplay(t *testing.T) {
	blk := matrix.NewBlock(0, 2, 4, 4)
	for i := range blk.Data {
		blk.Data[i] = -float64(i) / 3
	}
	ns := newNodeState(1, newWireMetrics(nil), 1024, newCancelSet())
	msg := &agentMsg{ID: 1<<40 | 1, Hop: 0, Behavior: "bench-ring",
		State: &benchBlockState{Row: 2, Blk: blk}}
	if _, err := ns.inject(msg); err != nil {
		t.Fatal(err)
	}
	// Mutate the live value after the checkpoint: the snapshot must be
	// immune (it is a copy, not an alias).
	blk.Data[0] = 999

	msgs, err := ns.replayMessages()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("replayed %d agents, want 1", len(msgs))
	}
	got := msgs[0].State.(*benchBlockState)
	if got.Blk.Data[0] != 0 {
		t.Fatalf("checkpoint aliased live state: Data[0] = %v", got.Blk.Data[0])
	}
	for i := 1; i < len(blk.Data); i++ {
		if got.Blk.Data[i] != -float64(i)/3 {
			t.Fatalf("element %d = %v", i, got.Blk.Data[i])
		}
	}
}

// TestFrameBufferReuse checks the release/reuse contract: sequential
// encode-release cycles converge to zero buffer allocations.
func TestFrameBufferReuse(t *testing.T) {
	env := &envelope{Kind: msgAgent, Agent: &agentMsg{ID: 5<<40 | 11, Hop: 2, Behavior: "golden", State: goldenValue()}}
	allocs := testing.AllocsPerRun(200, func() {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		f.release()
	})
	// gob allocates per state encode (encoder state, type info); the
	// bound just has to be far below body-size bytes to prove the frame
	// buffer is recycled rather than grown fresh each call.
	if allocs > 40 {
		t.Fatalf("encode+release allocates %v objects per frame", allocs)
	}
}
