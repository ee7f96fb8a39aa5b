package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// durableView is everything a node log must reproduce, in a form
// reflect.DeepEqual compares exactly. Runtime-only state (parked agents,
// events) is left out: it is rebuilt by replay, not persisted.
type durableView struct {
	Totals       [6]int64
	PerJob       map[uint64]counters
	Ckpt         map[uint64]checkpoint
	LastHop      map[uint64]uint64
	Retired      []dedupRetired
	Migrations   map[uint64]int
	Reroutes     map[uint64]int
	Frozen       map[uint64]bool
	Flags        [3]bool
	Absorbed     map[int]bool
	AbsorbTarget int
	Vars         map[string][]byte
	VarNames     []string
	Cancelled    map[uint64]bool
}

func viewOf(ns *nodeState) durableView {
	v := durableView{
		PerJob: map[uint64]counters{}, Ckpt: map[uint64]checkpoint{}, LastHop: map[uint64]uint64{},
		Migrations: map[uint64]int{}, Reroutes: map[uint64]int{}, Frozen: map[uint64]bool{},
		Absorbed: map[int]bool{}, Vars: map[string][]byte{}, Cancelled: map[uint64]bool{},
		Retired: []dedupRetired{},
	}
	ns.mu.Lock()
	v.Totals = [6]int64{ns.created, ns.finished, ns.sent, ns.received, int64(ns.nextAgent), ns.arrivals}
	for job, c := range ns.perJob {
		v.PerJob[job] = *c
	}
	for id, c := range ns.ckpt {
		v.Ckpt[id] = *c
	}
	for id, hop := range ns.lastHop {
		v.LastHop[id] = hop
	}
	v.Retired = append(v.Retired, ns.retired[ns.retiredHead:]...)
	for id, dst := range ns.migrations {
		v.Migrations[id] = dst
	}
	for id, dst := range ns.reroutes {
		v.Reroutes[id] = dst
	}
	for job := range ns.frozen {
		v.Frozen[job] = true
	}
	v.Flags = [3]bool{ns.draining, ns.evacuated, ns.drained}
	for src := range ns.absorbed {
		v.Absorbed[src] = true
	}
	v.AbsorbTarget = ns.absorbTarget
	ns.mu.Unlock()
	ns.vars.mu.Lock()
	for name, b := range ns.vars.enc {
		v.Vars[name] = b
	}
	for name := range ns.vars.m {
		v.VarNames = append(v.VarNames, name)
	}
	ns.vars.mu.Unlock()
	sort.Strings(v.VarNames)
	ns.cancels.mu.Lock()
	for job := range ns.cancels.m {
		v.Cancelled[job] = true
	}
	ns.cancels.mu.Unlock()
	return v
}

const testRetain = 4 // small, so the retired FIFO evicts within a short run

func newTestNode(id int) *nodeState {
	return newNodeState(id, newWireMetrics(metrics.NewRegistry()), testRetain, newCancelSet())
}

// replayBytes loads a log image into a fresh node.
func replayBytes(t *testing.T, data []byte, id int) *nodeState {
	t.Helper()
	ns := newTestNode(id)
	if err := loadNodeLog(bytes.Clone(data), ns); err != nil {
		t.Fatalf("replay of %d log bytes: %v", len(data), err)
	}
	return ns
}

func assertView(t *testing.T, what string, got, want durableView) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replayed state differs from live state\n got: %+v\nwant: %+v", what, got, want)
	}
}

// churn drives a seeded random sequence of every durable nodeState
// transition — agent lifecycle, dedup retirement, pins, freezes, drain
// flags, absorbs, variables, cancellations — with a sync every few
// steps. After each sync it records the log size and the live durable
// view: the state a load of the log cut at that size must reproduce.
type churn struct {
	t     *testing.T
	rng   *rand.Rand
	ns    *nodeState
	log   *nodeLog
	sizes []int64
	views []durableView
}

func newChurn(t *testing.T, seed int64) *churn {
	dir := t.TempDir()
	ns := newTestNode(2)
	l, err := openNodeLog(dir, ns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.close)
	c := &churn{t: t, rng: rand.New(rand.NewSource(seed)), ns: ns, log: l}
	c.checkpoint()
	return c
}

func (c *churn) fileBytes() []byte {
	data, err := os.ReadFile(c.log.path)
	if err != nil {
		c.t.Fatal(err)
	}
	return data
}

// checkpoint syncs and records the boundary.
func (c *churn) checkpoint() {
	if err := c.ns.sync(); err != nil {
		c.t.Fatal(err)
	}
	c.sizes = append(c.sizes, c.log.size)
	c.views = append(c.views, viewOf(c.ns))
}

func (c *churn) resident() []uint64 {
	ids := c.ns.residentAgents()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (c *churn) ckptHop(id uint64) uint64 {
	c.ns.mu.Lock()
	defer c.ns.mu.Unlock()
	return c.ns.ckpt[id].hop
}

// step applies one random transition.
func (c *churn) step() {
	r, ns := c.rng, c.ns
	job := uint64(1 + r.Intn(3))
	res := c.resident()
	pick := func() (uint64, bool) {
		if len(res) == 0 {
			return 0, false
		}
		return res[r.Intn(len(res))], true
	}
	switch op := r.Intn(20); op {
	case 0, 1:
		msg := &agentMsg{ID: ns.newAgentID(), Job: job, Behavior: "ring", State: &ringState{Laps: r.Intn(5)}}
		ns.inject(msg) // errEvacuated is a legal outcome
	case 2, 3:
		// A fresh arrival from another node, or a duplicate of one.
		id := uint64(7)<<40 | uint64(1+r.Intn(12))
		ns.accept(&agentMsg{ID: id, Hop: uint64(1 + r.Intn(6)), Job: job, Behavior: "ring", State: &ringState{Laps: 1}})
	case 4:
		if id, ok := pick(); ok {
			ns.rehop(&agentMsg{ID: id, Hop: c.ckptHop(id), Job: job, Behavior: "ring", State: &ringState{Laps: 2}})
		}
	case 5, 6:
		if id, ok := pick(); ok {
			ns.ackDelivered(id, c.ckptHop(id))
		}
	case 7:
		if id, ok := pick(); ok {
			ns.complete(id, c.ckptHop(id))
		}
	case 8:
		ns.releaseJob(job)
	case 9:
		ns.markMigrations(r.Intn(3), job*uint64(r.Intn(2)), r.Intn(3))
	case 10:
		if id, ok := pick(); ok {
			switch r.Intn(3) {
			case 0:
				ns.assignMigration(id, r.Intn(3))
			case 1:
				ns.clearMigration(id)
			default:
				ns.pinReroute(id, r.Intn(3))
			}
		}
	case 11:
		if r.Intn(2) == 0 {
			ns.freeze(job)
		} else {
			ns.thaw(job)
		}
	case 12:
		ns.sweepStaleMarks()
	case 13:
		switch r.Intn(4) {
		case 0:
			ns.setDraining(r.Intn(2) == 0)
		case 1:
			ns.setEvacuated(r.Intn(4) == 0)
		case 2:
			ns.pinAbsorbTarget(func() int { return r.Intn(3) })
		default:
			if r.Intn(8) == 0 {
				ns.setDrained()
			}
		}
	case 14:
		ns.absorb(r.Intn(5), counters{Created: 2, Finished: 2, Sent: 3, Received: 3},
			map[uint64]counters{job: {Created: 1, Finished: 1}})
	case 15, 16:
		ns.vars.set(fmt.Sprintf("job.%d.v%d", job, r.Intn(4)), int64(r.Intn(100)))
	case 17:
		ns.vars.deletePrefix(fmt.Sprintf("job.%d.", job))
	case 18:
		ns.cancels.cancel(job)
	default:
		ns.cancels.release(job)
	}
}

func (c *churn) run(steps int) {
	for i := 0; i < steps; i++ {
		c.step()
		if c.rng.Intn(3) == 0 {
			c.checkpoint()
		}
	}
	c.checkpoint()
}

// TestNodeLogReplayEquivalence: after every sync of a random transition
// sequence, replaying the on-disk log into a fresh node reproduces the
// live durable state exactly — so every mutation recorded what it
// changed, under the lock that ordered it.
func TestNodeLogReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			c := newChurn(t, seed)
			for round := 0; round < 40; round++ {
				for i := 0; i < 1+c.rng.Intn(4); i++ {
					c.step()
				}
				c.checkpoint()
				assertView(t, fmt.Sprintf("after sync %d", round), viewOf(replayBytes(t, c.fileBytes(), 2)), c.views[len(c.views)-1])
			}
		})
	}
}

// TestNodeLogTornTail cuts the log at every batch boundary, and at every
// byte inside the final batch: a load must yield exactly the state of
// the last complete batch, because a torn batch's sync never returned.
func TestNodeLogTornTail(t *testing.T) {
	c := newChurn(t, 42)
	c.run(150)
	data := c.fileBytes()
	if int64(len(data)) != c.sizes[len(c.sizes)-1] {
		t.Fatalf("log holds %d bytes, last boundary at %d", len(data), c.sizes[len(c.sizes)-1])
	}
	for i, size := range c.sizes {
		assertView(t, fmt.Sprintf("cut at boundary %d (%d bytes)", i, size), viewOf(replayBytes(t, data[:size], 2)), c.views[i])
	}
	// The final batch: the last boundary whose size differs.
	last := len(c.sizes) - 1
	prev := last - 1
	for prev > 0 && c.sizes[prev] == c.sizes[last] {
		prev--
	}
	if c.sizes[prev] == c.sizes[last] {
		t.Fatal("the run never appended a batch")
	}
	for cut := c.sizes[prev] + 1; cut < c.sizes[last]; cut++ {
		assertView(t, fmt.Sprintf("cut at byte %d of the final batch", cut-c.sizes[prev]), viewOf(replayBytes(t, data[:cut], 2)), c.views[prev])
	}
	// A final batch whose bytes are all there but garbled is torn too.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xff
	assertView(t, "garbled final batch", viewOf(replayBytes(t, bad, 2)), c.views[prev])
	// The same damage with batches after it is corruption, not a tear.
	bad = bytes.Clone(data[:c.sizes[prev]])
	bad[len(bad)-1] ^= 0xff
	bad = append(bad, data[c.sizes[prev]:]...)
	if err := loadNodeLog(bad, newTestNode(2)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("mid-log checksum failure loaded with err = %v", err)
	}
}

// TestNodeLogCompactionBoundary crosses the compaction threshold with
// large checkpoints and checks the boundary from both sides: a crash
// before the rename (a torn temp file beside the old log) loads the
// pre-compaction state; the compacted log replays to the live state;
// and batches appended after it tear like any others.
func TestNodeLogCompactionBoundary(t *testing.T) {
	c := newChurn(t, 7)
	c.run(30)
	c.ns.setEvacuated(false)
	compactions := c.ns.met.logCompactions
	before := compactions.Value()
	var oldLog []byte
	var oldView durableView
	// syncCompacted syncs, remembering the log as it stood before.
	syncCompacted := func() bool {
		oldLog, oldView = c.fileBytes(), c.views[len(c.views)-1]
		c.checkpoint()
		return compactions.Value() != before
	}
	for i := 0; ; i++ {
		if i > 64 {
			t.Fatal("log never compacted")
		}
		// Each agent carries 64 KiB and is retired right away: the log
		// grows by its put and delete while the live state stays small.
		msg := &agentMsg{ID: c.ns.newAgentID(), Job: 1, Behavior: "ring", State: bytes.Repeat([]byte{byte(i)}, 64<<10)}
		if _, err := c.ns.inject(msg); err != nil {
			t.Fatal(err)
		}
		if syncCompacted() {
			break
		}
		c.ns.complete(msg.ID, 0)
		if syncCompacted() {
			break
		}
	}
	compacted := c.fileBytes()
	if int64(len(compacted)) >= compactMinBytes {
		t.Fatalf("compacted log is %d bytes; want it below the %d-byte threshold that triggered it", len(compacted), compactMinBytes)
	}
	live := c.views[len(c.views)-1]
	assertView(t, "compacted log", viewOf(replayBytes(t, compacted, 2)), live)

	// Crash mid-compaction: the old log plus a temp file cut anywhere.
	for _, cut := range []int{0, 1, logHeaderLen, logHeaderLen + 3, len(compacted) / 2, len(compacted) - 1} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFileName), oldLog, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logFileName+".tmp"), compacted[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ns := newTestNode(2)
		l, err := openNodeLog(dir, ns)
		if err != nil {
			t.Fatalf("tmp cut at %d: %v", cut, err)
		}
		assertView(t, fmt.Sprintf("old log + temp cut at %d", cut), viewOf(ns), oldView)
		l.close()
	}

	// After the compaction, batches append and tear as before.
	base := len(c.sizes)
	c.run(60)
	data := c.fileBytes()
	for i := base - 1; i < len(c.sizes); i++ {
		assertView(t, fmt.Sprintf("post-compaction boundary %d", i), viewOf(replayBytes(t, data[:c.sizes[i]], 2)), c.views[i])
	}
	for cut := c.sizes[base-1]; cut < c.sizes[base]; cut++ {
		assertView(t, "torn first post-compaction batch", viewOf(replayBytes(t, data[:cut], 2)), c.views[base-1])
	}
}

// TestNodeLogGroupCommit: concurrent syncers share batches — fewer
// writes than syncs — and every caller's mutation is on disk when its
// sync returns. A sync with nothing pending writes nothing.
func TestNodeLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	ns := newTestNode(1)
	l, err := openNodeLog(dir, ns)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	const callers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("g%d.%d", g, i)
				ns.vars.set(name, int64(i))
				if err := ns.sync(); err != nil {
					errs <- err
					return
				}
				// The caller's own write must already be in the file.
				got, err := readVarFromLog(l.path, 1, name)
				if err != nil || got != int64(i) {
					errs <- fmt.Errorf("%s after its sync = (%v, %v), want %d", name, got, err, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	batches := ns.met.logBatches.Value()
	if batches > callers*each {
		t.Fatalf("%d batches for %d syncs", batches, callers*each)
	}
	t.Logf("%d syncs wrote %d batches", callers*each, batches)
	assertView(t, "after concurrent syncs", viewOf(replayBytes(t, mustRead(t, l.path), 1)), viewOf(ns))

	bytesBefore, batchesBefore := ns.met.logBytes.Value(), ns.met.logBatches.Value()
	for i := 0; i < 10; i++ {
		if err := ns.sync(); err != nil {
			t.Fatal(err)
		}
	}
	if ns.met.logBytes.Value() != bytesBefore || ns.met.logBatches.Value() != batchesBefore {
		t.Fatalf("idle syncs wrote %d bytes in %d batches", ns.met.logBytes.Value()-bytesBefore, ns.met.logBatches.Value()-batchesBefore)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readVarFromLog(path string, id int, name string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ns := newTestNode(id)
	if err := loadNodeLog(data, ns); err != nil {
		return nil, err
	}
	return ns.vars.get(name), nil
}

// TestNodeLogRefusesLegacySnapshot: a state dir from the full-image
// format is refused by name rather than silently started empty.
func TestNodeLogRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyStateFile)
	if err := os.WriteFile(legacy, []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("StartHost over a legacy snapshot: err = %v, want one naming %s", err, legacy)
	}
}

// TestNodeLogVarEncodedOnce: a variable is encoded when it is set, and a
// later sync writes only what changed — a resident variable is not
// rewritten by syncs for unrelated mutations.
func TestNodeLogVarEncodedOnce(t *testing.T) {
	dir := t.TempDir()
	ns := newTestNode(0)
	l, err := openNodeLog(dir, ns)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	ns.vars.set("resident", bytes.Repeat([]byte{7}, 32<<10))
	if err := ns.sync(); err != nil {
		t.Fatal(err)
	}
	before := ns.met.logBytes.Value()
	ns.inject(&agentMsg{ID: ns.newAgentID(), Job: 3, Behavior: "ring", State: &ringState{Laps: 1}})
	if err := ns.sync(); err != nil {
		t.Fatal(err)
	}
	if wrote := ns.met.logBytes.Value() - before; wrote > 1024 {
		t.Fatalf("an injection with 32 KiB resident wrote %d bytes", wrote)
	}
}

// TestDupAndRefusedAckSyncsWriteNothing: the daemon syncs before every
// hop ack, including duplicate and Refused acks whose frame changed
// nothing. Those syncs find nothing pending and write 0 bytes, while a
// fresh acceptance is in the log before its ack is on the wire.
func TestDupAndRefusedAckSyncsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir, Options: Options{Metrics: metrics.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	node := h.daemon.node
	const job = 5
	// A frozen job parks its agents at dispatch, so nothing but the
	// frames below touches the node.
	node.freeze(job)
	if err := node.sync(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", h.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	hop := func(id uint64) ackMsg {
		t.Helper()
		f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: &agentMsg{ID: id, Hop: 1, Job: job, Behavior: "ring", State: &ringState{Laps: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = conn.Write(f.bytes())
		f.release()
		if err != nil {
			t.Fatal(err)
		}
		env, err := readFrame(r)
		if err != nil || env.Kind != msgAck {
			t.Fatalf("hop %d reply = (%v, %v), want an ack", id, env, err)
		}
		return env.Ack
	}
	written := func() (int64, int64) { return node.met.logBytes.Value(), node.met.logBatches.Value() }

	const first = 1<<40 | 1
	if ack := hop(first); ack.Dup || ack.Refused {
		t.Fatalf("fresh frame ack = %+v", ack)
	}
	// Persist-before-ack: the acceptance is on disk once the ack is out.
	onDisk := replayBytes(t, mustRead(t, filepath.Join(dir, logFileName)), 0)
	if onDisk.pendingCheckpoints() != 1 || !onDisk.isDupHop(first, 1) {
		t.Fatal("acked acceptance is not in the node log")
	}
	bytes0, batches0 := written()
	if ack := hop(first); !ack.Dup {
		t.Fatalf("redelivered frame ack = %+v, want Dup", ack)
	}
	if b, n := written(); b != bytes0 || n != batches0 {
		t.Fatalf("duplicate-ack sync wrote %d bytes in %d batches", b-bytes0, n-batches0)
	}

	node.setEvacuated(true)
	if err := node.sync(); err != nil {
		t.Fatal(err)
	}
	bytes0, batches0 = written()
	if ack := hop(1<<40 | 2); !ack.Refused {
		t.Fatalf("frame at an evacuated node ack = %+v, want Refused", ack)
	}
	if b, n := written(); b != bytes0 || n != batches0 {
		t.Fatalf("Refused-ack sync wrote %d bytes in %d batches", b-bytes0, n-batches0)
	}
}
