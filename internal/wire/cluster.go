package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/navp"
)

// Options configures a cluster's fault-tolerance layer. The zero value
// gives a plain, fault-free cluster with conservative timeouts — the
// behavior of NewCluster.
type Options struct {
	// Fault injects a deterministic chaos plan into every hop send:
	// drops, duplicates, delays, and daemon kills. Nil injects nothing.
	Fault *fault.Plan
	// Recover enables heartbeat failure detection and automatic daemon
	// restart with checkpoint replay. It is implied when Fault schedules
	// kills; without it a dead daemon stays dead.
	Recover bool
	// AckTimeout is how long a sender waits for a hop acknowledgement
	// before retrying (default 500ms).
	AckTimeout time.Duration
	// RetryBackoff is the initial resend backoff, doubling per attempt up
	// to MaxRetryBackoff (defaults 5ms and 250ms).
	RetryBackoff, MaxRetryBackoff time.Duration
	// HeartbeatInterval is the monitor's ping period (default 25ms).
	HeartbeatInterval time.Duration
	// RestartDelay is how long a dead daemon stays down before the
	// monitor restarts it (default: the fault plan's RestartDelay, or
	// 50ms without a plan).
	RestartDelay time.Duration
	// Tracer, if non-nil, receives hop/drop/retry/kill/recover events
	// with wall-clock timestamps in seconds since cluster start (it
	// must be safe for concurrent use; internal/trace.Recorder is).
	Tracer navp.Tracer
	// Metrics, if non-nil, receives the runtime's counters, gauges, and
	// histograms (see metrics.go for the names). Nil creates a private
	// registry, readable via Cluster.Metrics — instrumentation is always
	// on; it costs one atomic op per event.
	Metrics *metrics.Registry
	// DedupRetain is the per-node high-water mark for retired dedup
	// entries: how many (agent, hop) pairs a node keeps after their
	// checkpoints retire before evicting the oldest (default 1024).
	DedupRetain int
	// DrainTimeout bounds a msgDrain evacuation: how long a draining
	// daemon waits for its resident agents to ship out before giving up
	// (default 10s; a msgDrain frame can override per request).
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&o.AckTimeout, 500*time.Millisecond)
	def(&o.RetryBackoff, 5*time.Millisecond)
	def(&o.MaxRetryBackoff, 250*time.Millisecond)
	def(&o.HeartbeatInterval, 25*time.Millisecond)
	def(&o.DrainTimeout, 10*time.Second)
	if o.RestartDelay <= 0 {
		if o.Fault != nil {
			o.RestartDelay = secondsToDuration(o.Fault.RestartDelayOrDefault())
		} else {
			o.RestartDelay = 50 * time.Millisecond
		}
	}
	if o.Fault != nil && len(o.Fault.Kills) > 0 {
		o.Recover = true
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.DedupRetain <= 0 {
		o.DedupRetain = 1024
	}
	return o
}

// traceSink stamps wire runtime events with wall-clock seconds since
// cluster start and forwards them to the configured tracer.
type traceSink struct {
	tracer navp.Tracer
	epoch  time.Time
}

func (ts *traceSink) record(kind navp.TraceKind, job uint64, agent string, from, to int, bytes int64, label string) {
	if ts == nil || ts.tracer == nil {
		return
	}
	now := time.Since(ts.epoch).Seconds()
	ts.tracer.Record(navp.TraceEvent{Kind: kind, Job: job, Agent: agent, From: from, To: to,
		Label: label, Bytes: bytes, Start: now, End: now})
}

// Cluster is a set of wire daemons on loopback TCP, plus the control
// client that injects agents, detects quiescence, and — when recovery is
// enabled — supervises daemon health and restarts dead daemons from
// their node-resident checkpoint stores. It plays the role of the
// operator's shell in a MESSENGERS deployment.
type Cluster struct {
	opts    Options
	states  []*nodeState // persistent node-resident state, one per node
	peers   []string
	members *membership // shared static view: index i = cl.peers[i]
	errs    chan error
	sink    *traceSink
	cancels *cancelSet // job cancellation set, shared by every node

	mu      sync.Mutex
	daemons []*daemon // current incarnations
	ctl     []*ctlConn
	closed  bool

	// frozenJobs mirrors the daemons' freeze marks on the client side so
	// WaitJob can fail fast with ErrJobFrozen instead of polling a
	// namespace that cannot drain. Guarded by mu.
	frozenJobs map[uint64]struct{}

	closeOnce   sync.Once
	monitorStop chan struct{}
	monitorDone chan struct{}
}

// ctlConn is the coordinator's lazily redialed connection to one
// daemon. The mutex serializes round trips: with a scheduler on top,
// Wait and any number of concurrent WaitJob pollers share these
// connections.
type ctlConn struct {
	mu     sync.Mutex
	addr   string
	conn   net.Conn
	r      *bufio.Reader
	closed bool
}

// roundTrip sends one control frame and reads the reply. The request
// is encoded before c.mu is taken and the reply decoded after it is
// released, so the lock covers only the exchange on the socket — the
// part that must be serialized — and concurrent callers sharing this
// connection never wait on each other's codec work.
func (c *ctlConn) roundTrip(env *envelope, timeout time.Duration) (*envelope, error) {
	f, err := encodeFrame(env)
	if err != nil {
		return nil, err
	}
	defer f.release()
	bp, err := c.exchange(f.bytes(), timeout)
	if err != nil {
		return nil, err
	}
	defer putBodyBuf(bp)
	return decodeBody(*bp)
}

// exchange writes one encoded frame and reads the reply's body (a
// pooled buffer the caller returns with putBodyBuf). Any failure closes
// the connection so the next call redials (reaching the daemon's
// current incarnation after a restart) — except an explicit close(),
// which is terminal: a round trip racing or following Close must fail,
// not resurrect the connection.
func (c *ctlConn) exchange(req []byte, timeout time.Duration) (*[]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("wire: control connection to %s is closed", c.addr)
	}
	if c.conn == nil {
		//lint:ignore lockorder c.mu exists to serialize whole exchanges on this one connection, dial included; every wait under it is deadline-bounded, and a contender stalls only on its own daemon's control channel.
		conn, err := net.DialTimeout("tcp", c.addr, timeout)
		if err != nil {
			return nil, err
		}
		c.conn = conn
		c.r = bufio.NewReader(conn)
	}
	fail := func(err error) (*[]byte, error) {
		c.conn.Close()
		c.conn, c.r = nil, nil
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return fail(err)
	}
	//lint:ignore lockorder the write-then-read exchange must be atomic per connection or replies interleave across callers; SetDeadline above bounds both waits.
	if _, err := c.conn.Write(req); err != nil {
		return fail(err)
	}
	//lint:ignore lockorder second half of the serialized exchange; deadline-bounded like the write.
	bp, err := readBody(c.r)
	if err != nil {
		return fail(err)
	}
	c.conn.SetDeadline(time.Time{})
	return bp, nil
}

func (c *ctlConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// shutdown writes a best-effort shutdown frame on the live connection,
// if any, then closes it (terminally, like close).
func (c *ctlConn) shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return
	}
	if f, err := encodeFrame(&envelope{Kind: msgShutdown}); err == nil {
		//lint:ignore lockorder best-effort farewell on a connection being closed; the mutex keeps it from interleaving with a live round trip, and close() follows immediately.
		c.conn.Write(f.bytes())
		f.release()
	}
	c.conn.Close()
	c.conn = nil
}

// NewCluster starts n daemons listening on ephemeral loopback ports — a
// plain cluster with no fault injection and no recovery.
func NewCluster(n int) (*Cluster, error) { return NewClusterOpts(n, Options{}) }

// NewClusterOpts starts a cluster with an explicit fault-tolerance
// configuration.
func NewClusterOpts(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: cluster size %d must be positive", n)
	}
	opts = opts.withDefaults()
	if opts.Fault != nil {
		for _, k := range opts.Fault.Kills {
			if k.Node < 0 || k.Node >= n {
				return nil, fmt.Errorf("wire: fault plan kills node %d of %d", k.Node, n)
			}
		}
	}
	cl := &Cluster{
		opts:       opts,
		errs:       make(chan error, n),
		sink:       &traceSink{tracer: opts.Tracer, epoch: time.Now()},
		cancels:    newCancelSet(),
		frozenJobs: map[uint64]struct{}{},
	}
	met := newWireMetrics(opts.Metrics)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("wire: listen: %w", err)
		}
		listeners[i] = ln
		cl.peers = append(cl.peers, ln.Addr().String())
		cl.states = append(cl.states, newNodeState(i, met, opts.DedupRetain, cl.cancels))
	}
	cl.members = newMembership(cl.peers)
	for i := 0; i < n; i++ {
		d := newDaemon(i, cl.members, listeners[i], cl.states[i], &cl.opts, cl.errs, cl.sink)
		cl.daemons = append(cl.daemons, d)
		cl.ctl = append(cl.ctl, &ctlConn{addr: cl.peers[i]})
		go d.serve()
	}
	if opts.Recover {
		cl.monitorStop = make(chan struct{})
		cl.monitorDone = make(chan struct{})
		go cl.monitor()
	}
	return cl, nil
}

// Size returns the number of daemons.
func (cl *Cluster) Size() int { return len(cl.states) }

// Metrics returns the cluster's metric registry (Options.Metrics, or the
// private registry created when none was supplied). Snapshot it any time
// — during a run or after Wait.
func (cl *Cluster) Metrics() *metrics.Registry { return cl.opts.Metrics }

// daemon returns node i's current incarnation.
func (cl *Cluster) daemon(i int) *daemon {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.daemons[i]
}

// Inject starts an agent with the given registered behavior and
// gob-encodable state on node id — the paper's command-line injection.
// The agent is checkpointed before dispatch, so injection is durable
// even if the target daemon is mid-crash. The agent lives in the
// default namespace (job 0), observed by Wait.
func (cl *Cluster) Inject(node int, behavior string, state any) {
	cl.daemon(node).injectLocal(0, behavior, state, nil)
}

// InjectJob is Inject scoped to a job namespace: the agent — and every
// agent it transitively injects — is accounted to job, so WaitJob can
// detect that one tenant's work has drained while others still run, and
// CancelJob can retire its agents without touching anyone else's. job
// must be nonzero (0 is the default namespace of plain Inject).
func (cl *Cluster) InjectJob(node int, job uint64, behavior string, state any) error {
	if job == 0 {
		return fmt.Errorf("wire: job id must be nonzero")
	}
	return cl.daemon(node).injectLocal(job, behavior, state, nil)
}

// Set places a node variable on a node before (or between) runs — the
// initial data distribution. Node variables live in the node-resident
// state and survive daemon restarts.
func (cl *Cluster) Set(node int, name string, v any) {
	cl.states[node].vars.set(name, v)
}

// Get reads a node variable from a node (after Wait, for collecting
// results).
func (cl *Cluster) Get(node int, name string) any {
	return cl.states[node].vars.get(name)
}

// SetVar is Set with the error-returning signature shared with
// RemoteCluster: an in-process write cannot fail, a remote one can.
func (cl *Cluster) SetVar(node int, name string, v any) error {
	cl.Set(node, name, v)
	return nil
}

// GetVar is Get with the error-returning remote-compatible signature.
func (cl *Cluster) GetVar(node int, name string) (any, error) {
	return cl.Get(node, name), nil
}

// Wait blocks until the cluster is quiescent — every agent finished and
// no migration in flight — using Mattern's four-counter termination
// detection: two consecutive identical snapshots with created ==
// finished and sent == received. Because a daemon counts a migration
// sent only when the receiver acknowledged checkpointing it, and counts
// received only for deduplicated accepts, the detection stays correct
// under dropped, duplicated, and replayed hops; and because an unfinished
// agent always holds a checkpoint (created > finished), a dead daemon
// holding agents keeps the snapshot unbalanced until recovery replays
// them. It returns the first daemon error, or an error on timeout.
func (cl *Cluster) Wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var prev counters
	havePrev := false
	for {
		select {
		case err := <-cl.errs:
			return err
		default:
		}
		if time.Now().After(deadline) {
			cur := cl.snapshot()
			return fmt.Errorf("wire: termination timeout after %v (created %d, finished %d, sent %d, received %d)",
				timeout, cur.Created, cur.Finished, cur.Sent, cur.Received)
		}
		cur := cl.snapshot()
		balanced := cur.Created == cur.Finished && cur.Sent == cur.Received
		if balanced && havePrev && cur == prev {
			return nil
		}
		prev, havePrev = cur, true
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitJob blocks until one job namespace is quiescent — every agent of
// that job finished (or was retired by cancellation) and none of its
// migrations are in flight — using the same Mattern detection as Wait,
// over the job's counter slice only. Other tenants' agents keep the
// cluster busy without disturbing the detection: their events land in
// their own namespaces. It returns the first daemon error, or an error
// on timeout.
func (cl *Cluster) WaitJob(job uint64, timeout time.Duration) error {
	if job == 0 {
		return fmt.Errorf("wire: WaitJob needs a nonzero job id (use Wait for the whole cluster)")
	}
	deadline := time.Now().Add(timeout)
	var prev counters
	havePrev := false
	for {
		select {
		case err := <-cl.errs:
			return err
		default:
		}
		if cl.JobFrozen(job) {
			// A frozen namespace cannot drain; report the preemption
			// instead of burning the caller's whole timeout.
			return ErrJobFrozen
		}
		if time.Now().After(deadline) {
			cur := cl.snapshotJob(job)
			return fmt.Errorf("wire: job %d termination timeout after %v (created %d, finished %d, sent %d, received %d)",
				job, timeout, cur.Created, cur.Finished, cur.Sent, cur.Received)
		}
		cur := cl.snapshotJob(job)
		balanced := cur.Created == cur.Finished && cur.Sent == cur.Received
		if balanced && havePrev && cur == prev {
			return nil
		}
		prev, havePrev = cur, true
		time.Sleep(2 * time.Millisecond)
	}
}

// CancelJob marks a job namespace cancelled. Its agents are not
// interrupted mid-step; each one is retired at its next dispatch —
// arrival on a node, local re-hop, or checkpoint replay after a crash —
// which keeps the job's termination counters balanced, so a WaitJob
// after CancelJob observes the namespace drain. Idempotent.
func (cl *Cluster) CancelJob(job uint64) {
	if job == 0 {
		return
	}
	cl.cancels.cancel(job) // shared set: durable even if a daemon is mid-restart
	cl.unfreeze(job)
	cl.syncAll()
	// Best-effort control round trips so each daemon also thaws the
	// job's parked agents — a frozen, cancelled job must still drain.
	for i := range cl.ctl {
		cl.ctl[i].roundTrip(&envelope{Kind: msgCancel, Job: job}, cl.opts.AckTimeout)
	}
}

// syncAll persists every node's pending changes — the coordinator-side
// persist-before-externalize step for mutations of shared durable
// state (the cancel set, per-job counter slices) that a control frame
// is about to externalize. Best-effort: a failed sync only delays
// durability of a mark whose effect replay re-derives.
//
//navplint:fact sync
func (cl *Cluster) syncAll() {
	for _, ns := range cl.states {
		ns.sync()
	}
}

// MigrateAgents marks up to count resident agents on node (namespace
// job, 0 = any; count 0 = all) for migration to dst. The agents ship at
// their next dispatch boundary as synthetic hops through the ordinary
// delivery path; returns how many were marked.
func (cl *Cluster) MigrateAgents(node, dst int, job uint64, count int) (int, error) {
	if node < 0 || node >= len(cl.ctl) || dst < 0 || dst >= len(cl.states) {
		return 0, fmt.Errorf("wire: migrate %d -> %d outside a cluster of %d", node, dst, len(cl.states))
	}
	reply, err := cl.ctl[node].roundTrip(&envelope{Kind: msgMigrate, Node: dst, Job: job, Count: count}, cl.opts.AckTimeout)
	if err != nil {
		return 0, fmt.Errorf("wire: migrate on node %d: %w", node, err)
	}
	if reply.Kind != msgMigrated {
		return 0, fmt.Errorf("wire: migrate on node %d: unexpected %s reply", node, reply.Kind)
	}
	return reply.Count, nil
}

// FreezeJob parks a namespace on every node: its agents stop at their
// next dispatch boundary, checkpointed, counters untouched, until
// ThawJob. The first per-node failure is returned; the freeze marks
// that did land still hold.
func (cl *Cluster) FreezeJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: FreezeJob needs a nonzero job id")
	}
	var firstErr error
	for i := range cl.ctl {
		_, err := cl.ctl[i].roundTrip(&envelope{Kind: msgFreeze, Job: job}, cl.opts.AckTimeout)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wire: freeze job on node %d: %w", i, err)
		}
	}
	cl.mu.Lock()
	cl.frozenJobs[job] = struct{}{}
	cl.mu.Unlock()
	return firstErr
}

// JobFrozen reports whether FreezeJob has frozen the namespace (and no
// ThawJob, CancelJob, or ReleaseJob has since lifted it).
func (cl *Cluster) JobFrozen(job uint64) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_, ok := cl.frozenJobs[job]
	return ok
}

func (cl *Cluster) unfreeze(job uint64) {
	cl.mu.Lock()
	delete(cl.frozenJobs, job)
	cl.mu.Unlock()
}

// ThawJob resumes a frozen namespace: every node re-dispatches its
// parked agents.
func (cl *Cluster) ThawJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: ThawJob needs a nonzero job id")
	}
	cl.unfreeze(job)
	var firstErr error
	for i := range cl.ctl {
		_, err := cl.ctl[i].roundTrip(&envelope{Kind: msgThaw, Job: job}, cl.opts.AckTimeout)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wire: thaw job on node %d: %w", i, err)
		}
	}
	return firstErr
}

// DrainNode evacuates node's agents to the surviving members, hands its
// counter history to one of them, and tombstones it in the membership.
// The daemon keeps serving as a shell (duplicate acks settled, fresh
// frames refused) until the cluster closes.
func (cl *Cluster) DrainNode(node int, timeout time.Duration) error {
	if node < 0 || node >= len(cl.ctl) {
		return fmt.Errorf("wire: no node %d in a cluster of %d", node, len(cl.ctl))
	}
	if timeout <= 0 {
		timeout = cl.opts.DrainTimeout
	}
	reply, err := cl.ctl[node].roundTrip(&envelope{Kind: msgDrain, Count: int(timeout / time.Millisecond)}, timeout+cl.opts.AckTimeout)
	if err != nil {
		return fmt.Errorf("wire: drain node %d: %w", node, err)
	}
	if reply.Kind != msgOK {
		return fmt.Errorf("wire: drain node %d: unexpected %s reply", node, reply.Kind)
	}
	if reply.Err != "" {
		return fmt.Errorf("wire: drain node %d: %s", node, reply.Err)
	}
	cl.members.leave(node)
	return nil
}

// ReleaseJob forgets a finished (or cancelled-and-drained) job's
// bookkeeping on every node: its counter slice and its cancellation
// mark. Call it once per job after WaitJob returns, or a long-lived
// serving cluster accumulates a counter slice per job forever. The
// job's agents must be quiescent; releasing a live job would corrupt
// its termination detection.
func (cl *Cluster) ReleaseJob(job uint64) {
	if job == 0 {
		return
	}
	for _, ns := range cl.states {
		ns.releaseJob(job)
	}
	cl.cancels.release(job)
	cl.unfreeze(job)
	cl.syncAll()
	// Best-effort daemon round trips so each node also drops the job's
	// freeze mark (msgFree thaws): a suspend that raced the job's own
	// completion must not leave per-node marks behind.
	for i := range cl.ctl {
		cl.ctl[i].roundTrip(&envelope{Kind: msgFree, Job: job}, cl.opts.AckTimeout)
	}
}

// LiveNodes lists the nodes that have not drained out of the cluster —
// the placeable set a scheduler should target.
func (cl *Cluster) LiveNodes() []int {
	var nodes []int
	for i := range cl.states {
		if !cl.members.left(i) {
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// Alive reports whether a node is a live member (in-process daemons
// never die silently, so this is simply not-departed). It gives the
// in-process cluster the same liveness surface the remote client's
// heartbeat prober provides.
func (cl *Cluster) Alive(node int) bool {
	return node >= 0 && node < len(cl.states) && !cl.members.left(node)
}

// ClearVarsPrefix deletes every node variable whose name begins with
// prefix, on every node. Serving jobs write results under job-scoped
// prefixes; this is how a completed job's outputs are reclaimed after
// they are consumed.
func (cl *Cluster) ClearVarsPrefix(prefix string) {
	for _, ns := range cl.states {
		ns.vars.deletePrefix(prefix)
	}
}

// JobsTracked reports how many job namespaces currently hold counter
// state on any node — the figure bounded by ReleaseJob.
func (cl *Cluster) JobsTracked() int {
	total := 0
	for _, ns := range cl.states {
		total += ns.jobsTracked()
	}
	return total
}

// snapshot gathers every daemon's counters, over its control connection
// when the daemon is reachable, directly from the node-resident store
// when it is down (the store is what a restarted daemon would report
// anyway, so the snapshot semantics are unchanged).
func (cl *Cluster) snapshot() counters {
	var total counters
	for i := range cl.states {
		if reply, err := cl.ctl[i].roundTrip(&envelope{Kind: msgSnapshot}, cl.opts.AckTimeout); err == nil && reply.Kind == msgCounters {
			total.add(reply.Counters)
			continue
		}
		total.add(cl.states[i].counters())
	}
	return total
}

// snapshotJob is snapshot restricted to one job's counter slice.
func (cl *Cluster) snapshotJob(job uint64) counters {
	var total counters
	for i := range cl.states {
		if reply, err := cl.ctl[i].roundTrip(&envelope{Kind: msgSnapshot, Job: job}, cl.opts.AckTimeout); err == nil && reply.Kind == msgCounters {
			total.add(reply.Counters)
			continue
		}
		total.add(cl.states[i].countersForJob(job))
	}
	return total
}

// monitor is the heartbeat loop: ping every daemon each interval and
// restart the dead ones from their checkpoint stores.
func (cl *Cluster) monitor() {
	defer close(cl.monitorDone)
	tick := time.NewTicker(cl.opts.HeartbeatInterval)
	defer tick.Stop()
	hb := make([]*ctlConn, len(cl.peers))
	for i, addr := range cl.peers {
		hb[i] = &ctlConn{addr: addr}
	}
	defer func() {
		for _, c := range hb {
			c.close()
		}
	}()
	for {
		select {
		case <-cl.monitorStop:
			return
		case <-tick.C:
		}
		for i := range cl.peers {
			select {
			case <-cl.monitorStop:
				return
			default:
			}
			d := cl.daemon(i)
			if !d.dead.Load() {
				if reply, err := hb[i].roundTrip(&envelope{Kind: msgPing}, cl.opts.HeartbeatInterval*4); err == nil && reply.Kind == msgPong {
					continue
				}
				// Unreachable: declare it dead. (terminate is idempotent,
				// so racing an in-progress kill is harmless.)
				d.terminate()
			}
			cl.restart(i)
		}
	}
}

// restart brings node i's daemon back after RestartDelay: rebind the
// node's address, start a fresh incarnation on the shared node state,
// and re-inject every checkpointed agent from its last completed hop —
// the recovery half of application-initiated checkpointing.
func (cl *Cluster) restart(i int) {
	select {
	case <-time.After(cl.opts.RestartDelay):
	case <-cl.monitorStop:
		return
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 400; attempt++ {
		if ln, err = net.Listen("tcp", cl.peers[i]); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		select {
		case cl.errs <- fmt.Errorf("wire: restart daemon %d: %w", i, err):
		default:
		}
		return
	}
	d := newDaemon(i, cl.members, ln, cl.states[i], &cl.opts, cl.errs, cl.sink)
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		ln.Close()
		return
	}
	cl.daemons[i] = d
	cl.mu.Unlock()
	go d.serve()
	msgs, err := cl.states[i].replayMessages()
	if err != nil {
		d.fail(err)
		return
	}
	cl.sink.record(navp.TraceRecover, 0, "", i, i, 0, fmt.Sprintf("%d agents replayed", len(msgs)))
	for _, msg := range msgs {
		d.startStep(msg, true)
	}
}

// Close shuts every daemon down and releases the sockets. It is
// idempotent and safe to call from any number of goroutines
// concurrently (a server's signal handler racing its main path, say):
// the first caller performs the shutdown, every later or concurrent
// caller returns after it has begun.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		cl.mu.Lock()
		cl.closed = true
		daemons := append([]*daemon(nil), cl.daemons...)
		ctl := append([]*ctlConn(nil), cl.ctl...)
		cl.mu.Unlock()
		if cl.monitorStop != nil {
			close(cl.monitorStop)
			<-cl.monitorDone
		}
		// Best-effort protocol shutdown over the control connections, then
		// terminate in-process (covers daemons with broken control links).
		for _, c := range ctl {
			c.shutdown()
		}
		for _, d := range daemons {
			d.terminate()
		}
	})
}
