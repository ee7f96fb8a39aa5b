package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrJobFrozen is returned by WaitJob for a namespace the client has
// frozen: a preempted job is parked, not progressing, and a caller
// waiting for quiescence would otherwise burn its whole timeout on a
// job that cannot move.
var ErrJobFrozen = errors.New("wire: job is frozen")

// remoteMember is the client's view of one cluster node: its address,
// a control connection (serialized round trips), a dedicated heartbeat
// probe connection (so a slow control round trip cannot starve
// liveness), and the liveness / departure flags.
type remoteMember struct {
	addr  string
	ctl   *ctlConn
	probe *ctlConn
	alive atomic.Bool
	left  atomic.Bool
}

// RemoteCluster is the coordinator's client for a cluster of daemon
// processes — the same surface the in-process Cluster offers a
// scheduler (inject, wait, variables, cancellation), implemented over
// control connections to real hosts instead of shared memory. A
// scheduler built on sched.Backend runs unchanged against either.
//
// The termination-detection caveat of distribution: an in-process
// coordinator can read a dead daemon's counters straight out of the
// shared nodeState, so its snapshots are always complete. A remote
// coordinator polling a killed host gets nothing — and an incomplete
// snapshot must never be mistaken for a balanced one, or WaitJob would
// declare a job finished while its agents sit checkpointed on the dead
// host's disk. Unreachable member ⇒ the round is discarded, and the
// job stays live until every member answers again. Members marked left
// (a completed drain) are the one exception: their history was absorbed
// by a survivor and they report zeros ever after, so snapshots skip
// them — which is what lets a job finish after the cluster shrinks.
//
// The member table can grow mid-run (Refresh adopts joiners) but an
// index, once assigned, is permanent — the same stability invariant the
// daemons' membership table has.
type RemoteCluster struct {
	opts Options

	mu        sync.Mutex
	members   []*remoteMember
	cancelled map[uint64]bool
	frozen    map[uint64]bool

	closed atomic.Bool
	hbStop chan struct{}
	hbDone chan struct{}

	closeOnce sync.Once
}

// RemoteOptions tunes the client; the zero value works.
type RemoteOptions struct {
	// Timeout bounds each control round trip (default 2s — generous,
	// because a daemon syncs to disk before replying).
	Timeout time.Duration
	// HeartbeatInterval is the liveness prober's period (default 100ms);
	// 0 < only with Heartbeat disabled.
	HeartbeatInterval time.Duration
	// Heartbeat enables the background liveness prober feeding Alive.
	Heartbeat bool
	// Metrics receives client-side metrics; nil creates a private
	// registry.
	Metrics *metrics.Registry
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// DialCluster discovers the membership through any live member (an
// observer msgJoin) and returns a client for the whole cluster.
func DialCluster(seed string, ropts RemoteOptions) (*RemoteCluster, error) {
	ropts = ropts.withDefaults()
	c := &ctlConn{addr: seed}
	defer c.close()
	reply, err := c.roundTrip(&envelope{Kind: msgJoin}, ropts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial cluster via %s: %w", seed, err)
	}
	if reply.Kind != msgMembers {
		return nil, fmt.Errorf("wire: dial cluster via %s: unexpected %s reply", seed, reply.Kind)
	}
	return StaticCluster(reply.Members, ropts)
}

// StaticCluster returns a client for a known member list (the seed file
// of a static deployment).
func StaticCluster(members []string, ropts RemoteOptions) (*RemoteCluster, error) {
	if err := validateMembers(members); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("wire: empty member list")
	}
	ropts = ropts.withDefaults()
	rc := &RemoteCluster{
		opts:      Options{Metrics: ropts.Metrics, AckTimeout: ropts.Timeout},
		cancelled: map[uint64]bool{},
		frozen:    map[uint64]bool{},
	}
	for _, addr := range members {
		rc.members = append(rc.members, newRemoteMember(addr))
	}
	if ropts.Heartbeat {
		rc.hbStop = make(chan struct{})
		rc.hbDone = make(chan struct{})
		go rc.heartbeat(ropts.HeartbeatInterval)
	}
	return rc, nil
}

func newRemoteMember(addr string) *remoteMember {
	m := &remoteMember{addr: addr, ctl: &ctlConn{addr: addr}, probe: &ctlConn{addr: addr}}
	m.alive.Store(true) // optimistic until the prober says otherwise
	return m
}

// snapshotMembers copies the member slice; the *remoteMember pointers
// are stable across table growth, so callers iterate without the lock.
func (rc *RemoteCluster) snapshotMembers() []*remoteMember {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]*remoteMember(nil), rc.members...)
}

// member returns node i or nil.
func (rc *RemoteCluster) member(i int) *remoteMember {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if i < 0 || i >= len(rc.members) {
		return nil
	}
	return rc.members[i]
}

// Size returns the cluster's node count, departed members included (a
// left member still occupies its index).
func (rc *RemoteCluster) Size() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.members)
}

// Members returns the address table in node-id order.
func (rc *RemoteCluster) Members() []string {
	ms := rc.snapshotMembers()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// Metrics returns the client-side metric registry.
func (rc *RemoteCluster) Metrics() *metrics.Registry { return rc.opts.Metrics }

// Alive reports the liveness prober's last verdict on node i (always
// true when the prober is disabled, false for departed members).
// Placement uses it to steer fresh work away from dead hosts;
// correctness never depends on it.
func (rc *RemoteCluster) Alive(i int) bool {
	m := rc.member(i)
	return m != nil && !m.left.Load() && m.alive.Load()
}

// Left reports whether node i has departed (its drain completed).
func (rc *RemoteCluster) Left(i int) bool {
	m := rc.member(i)
	return m == nil || m.left.Load()
}

// MarkLeft records node i as departed without a drain round trip — the
// hook for an operator who shut a drained shell down out of band.
func (rc *RemoteCluster) MarkLeft(i int) {
	if m := rc.member(i); m != nil {
		m.left.Store(true)
	}
}

// LiveNodes lists the indices of members that have not departed. It is
// the scheduler's placement domain in an elastic cluster.
func (rc *RemoteCluster) LiveNodes() []int {
	var out []int
	for i, m := range rc.snapshotMembers() {
		if !m.left.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Refresh re-discovers the membership through any live member and
// adopts joiners (a grown cluster's new daemons become addressable).
// Existing indices are never remapped; a shrunken reply is stale and
// ignored.
func (rc *RemoteCluster) Refresh() error {
	if rc.closed.Load() {
		return fmt.Errorf("wire: remote cluster is closed")
	}
	var reply *envelope
	var err error
	for _, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		reply, err = m.ctl.roundTrip(&envelope{Kind: msgJoin}, rc.opts.AckTimeout)
		if err == nil && reply.Kind == msgMembers {
			break
		}
		reply = nil
	}
	if reply == nil {
		if err == nil {
			err = fmt.Errorf("no live member answered")
		}
		return fmt.Errorf("wire: refresh membership: %w", err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, m := range rc.members {
		if i < len(reply.Members) && reply.Members[i] != m.addr {
			return fmt.Errorf("wire: refresh remaps node %d from %s to %s", i, m.addr, reply.Members[i])
		}
	}
	for i := len(rc.members); i < len(reply.Members); i++ {
		rc.members = append(rc.members, newRemoteMember(reply.Members[i]))
	}
	return nil
}

// heartbeat probes every member each interval — the liveness half of
// the in-process monitor, without the restart half (an operator or a
// supervisor respawns real processes).
func (rc *RemoteCluster) heartbeat(interval time.Duration) {
	defer close(rc.hbDone)
	for {
		select {
		case <-rc.hbStop:
			return
		case <-time.After(interval):
		}
		for _, m := range rc.snapshotMembers() {
			select {
			case <-rc.hbStop:
				return
			default:
			}
			if m.left.Load() {
				continue
			}
			reply, err := m.probe.roundTrip(&envelope{Kind: msgPing}, interval*4)
			m.alive.Store(err == nil && reply.Kind == msgPong)
		}
	}
}

// control performs one round trip to node i expecting an ok reply.
func (rc *RemoteCluster) control(i int, env *envelope) error {
	reply, err := rc.roundTrip(i, env)
	if err != nil {
		return err
	}
	if reply.Kind != msgOK {
		return fmt.Errorf("wire: %s to node %d: unexpected %s reply", env.Kind, i, reply.Kind)
	}
	if reply.Err != "" {
		return fmt.Errorf("wire: %s to node %d: %s", env.Kind, i, reply.Err)
	}
	return nil
}

// roundTrip performs one control round trip to node i. A closed client
// refuses instead of redialing — the post-Close resurrection Close
// promises not to allow.
func (rc *RemoteCluster) roundTrip(i int, env *envelope) (*envelope, error) {
	if rc.closed.Load() {
		return nil, fmt.Errorf("wire: remote cluster is closed")
	}
	m := rc.member(i)
	if m == nil {
		return nil, fmt.Errorf("wire: no member %d in a cluster of %d", i, rc.Size())
	}
	reply, err := m.ctl.roundTrip(env, rc.opts.AckTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: %s to node %d (%s): %w", env.Kind, i, m.addr, err)
	}
	return reply, nil
}

// SetVar places a node variable on node i. The daemon persists before
// acknowledging, so a returned nil means the write survives kill -9.
func (rc *RemoteCluster) SetVar(node int, name string, v any) error {
	return rc.control(node, &envelope{Kind: msgSetVar, Name: name, Value: v})
}

// GetVar reads a node variable from node i.
func (rc *RemoteCluster) GetVar(node int, name string) (any, error) {
	reply, err := rc.roundTrip(node, &envelope{Kind: msgGetVar, Name: name})
	if err != nil {
		return nil, err
	}
	if reply.Kind != msgVar {
		return nil, fmt.Errorf("wire: getvar %q from node %d: unexpected %s reply", name, node, reply.Kind)
	}
	return reply.Value, nil
}

// InjectJob starts an agent on node under a job namespace. The daemon
// checkpoints and persists the agent before acknowledging, so a nil
// return means the injection is durable there. Departed members refuse
// placement immediately.
func (rc *RemoteCluster) InjectJob(node int, job uint64, behavior string, state any) error {
	if job == 0 {
		return fmt.Errorf("wire: job id must be nonzero")
	}
	if m := rc.member(node); m != nil && m.left.Load() {
		return fmt.Errorf("wire: node %d has left the cluster", node)
	}
	return rc.control(node, &envelope{
		Kind: msgInject, Job: job,
		Agent: &agentMsg{Behavior: behavior, State: state},
	})
}

// MigrateAgents marks up to count resident agents on node (namespace
// job; 0 = any; count 0 = all) for migration to dst, returning how many
// were marked. The daemon persists the marks before replying, and the
// agents ship at their next dispatch boundary as synthetic hops.
func (rc *RemoteCluster) MigrateAgents(node, dst int, job uint64, count int) (int, error) {
	reply, err := rc.roundTrip(node, &envelope{Kind: msgMigrate, Node: dst, Job: job, Count: count})
	if err != nil {
		return 0, err
	}
	if reply.Kind != msgMigrated {
		return 0, fmt.Errorf("wire: migrate on node %d: unexpected %s reply", node, reply.Kind)
	}
	return reply.Count, nil
}

// FreezeJob parks a job namespace cluster-wide: every member checkpoints
// the freeze mark, and the job's agents stop at their next dispatch
// boundary with counters untouched. WaitJob on a frozen job returns
// ErrJobFrozen instead of burning its timeout.
func (rc *RemoteCluster) FreezeJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: FreezeJob needs a nonzero job id")
	}
	rc.mu.Lock()
	rc.frozen[job] = true
	rc.mu.Unlock()
	var firstErr error
	for i, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		if err := rc.control(i, &envelope{Kind: msgFreeze, Job: job}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ThawJob resumes a frozen namespace: every member re-dispatches its
// parked agents.
func (rc *RemoteCluster) ThawJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: ThawJob needs a nonzero job id")
	}
	rc.mu.Lock()
	delete(rc.frozen, job)
	rc.mu.Unlock()
	var firstErr error
	for i, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		if err := rc.control(i, &envelope{Kind: msgThaw, Job: job}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// JobFrozen reports whether the client has frozen the namespace.
func (rc *RemoteCluster) JobFrozen(job uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.frozen[job]
}

// Drain evacuates node: every resident agent migrates to a live member,
// the node's counter history is absorbed by a survivor, and the member
// is marked departed here. The daemon keeps serving as a tombstone
// shell (settling duplicate acks, refusing fresh frames) until it is
// shut down. timeout bounds the daemon-side evacuation; the round trip
// itself is given a margin on top.
func (rc *RemoteCluster) Drain(node int, timeout time.Duration) error {
	if rc.closed.Load() {
		return fmt.Errorf("wire: remote cluster is closed")
	}
	m := rc.member(node)
	if m == nil {
		return fmt.Errorf("wire: no member %d in a cluster of %d", node, rc.Size())
	}
	if m.left.Load() {
		return nil
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	reply, err := m.ctl.roundTrip(&envelope{Kind: msgDrain, Count: int(timeout / time.Millisecond)}, timeout+rc.opts.AckTimeout)
	if err != nil {
		return fmt.Errorf("wire: drain node %d (%s): %w", node, m.addr, err)
	}
	if reply.Kind != msgOK {
		return fmt.Errorf("wire: drain node %d: unexpected %s reply", node, reply.Kind)
	}
	if reply.Err != "" {
		return fmt.Errorf("wire: drain node %d: %s", node, reply.Err)
	}
	m.left.Store(true)
	return nil
}

// DrainNode is Drain under the method name shared with the in-process
// Cluster, so a scheduler's elastic interface matches either backend.
func (rc *RemoteCluster) DrainNode(node int, timeout time.Duration) error {
	return rc.Drain(node, timeout)
}

// CancelJob marks a job cancelled on every reachable member and records
// the mark locally, so WaitJob can re-deliver it to members that were
// down when the broadcast went out.
func (rc *RemoteCluster) CancelJob(job uint64) {
	if job == 0 {
		return
	}
	rc.mu.Lock()
	rc.cancelled[job] = true
	// A cancel thaws on the daemons (frozen agents must still drain), so
	// the client-side freeze mark lifts with it — WaitJob switches from
	// failing fast to observing the drain.
	delete(rc.frozen, job)
	rc.mu.Unlock()
	for i, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		rc.control(i, &envelope{Kind: msgCancel, Job: job})
	}
}

func (rc *RemoteCluster) isCancelled(job uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.cancelled[job]
}

// ReleaseJob forgets a drained job's bookkeeping on every member.
// Best-effort per member: an unreachable host releases the namespace
// when a later ReleaseJob reaches it, or holds a stale slice — a
// bounded leak, not a correctness problem.
func (rc *RemoteCluster) ReleaseJob(job uint64) {
	if job == 0 {
		return
	}
	rc.mu.Lock()
	delete(rc.cancelled, job)
	delete(rc.frozen, job)
	rc.mu.Unlock()
	for i, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		rc.control(i, &envelope{Kind: msgFree, Job: job})
	}
}

// ClearVarsPrefix deletes prefixed node variables on every member.
func (rc *RemoteCluster) ClearVarsPrefix(prefix string) {
	for i, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		rc.control(i, &envelope{Kind: msgClear, Name: prefix})
	}
}

// WaitJob blocks until job's namespace is quiescent, by Mattern
// detection over remote snapshots: two consecutive identical complete
// snapshots with created == finished and sent == received. A round with
// any unreachable member is incomplete and discarded — the checkpointed
// agents on a dead host keep the job alive until a respawned daemon
// answers for them. Departed members are skipped: their history lives
// on in the survivor that absorbed it. Each round also re-delivers the
// job's cancellation mark (if any) to every member, so a host that was
// down for the CancelJob broadcast still absorbs the job's agents after
// respawn. A frozen job fails fast with ErrJobFrozen.
func (rc *RemoteCluster) WaitJob(job uint64, timeout time.Duration) error {
	if job == 0 {
		return fmt.Errorf("wire: WaitJob needs a nonzero job id")
	}
	deadline := time.Now().Add(timeout)
	var prev counters
	havePrev := false
	for {
		rc.mu.Lock()
		frozen := rc.frozen[job]
		rc.mu.Unlock()
		if frozen {
			return ErrJobFrozen
		}
		cur, complete := rc.snapshotJob(job)
		if complete {
			balanced := cur.Created == cur.Finished && cur.Sent == cur.Received
			if balanced && havePrev && cur == prev {
				return nil
			}
			prev, havePrev = cur, true
		} else {
			havePrev = false
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: job %d termination timeout after %v (created %d, finished %d, sent %d, received %d, complete %v)",
				job, timeout, cur.Created, cur.Finished, cur.Sent, cur.Received, complete)
		}
		if rc.isCancelled(job) {
			for i, m := range rc.snapshotMembers() {
				if m.left.Load() {
					continue
				}
				rc.control(i, &envelope{Kind: msgCancel, Job: job})
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// snapshotJob polls every non-departed member's counter slice for job;
// complete is false when any member did not answer.
func (rc *RemoteCluster) snapshotJob(job uint64) (total counters, complete bool) {
	complete = true
	for _, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		reply, err := m.ctl.roundTrip(&envelope{Kind: msgSnapshot, Job: job}, rc.opts.AckTimeout)
		if err != nil || reply.Kind != msgCounters {
			complete = false
			continue
		}
		total.add(reply.Counters)
	}
	return total, complete
}

// Close stops the prober and drops the control connections. It is
// idempotent and safe to call concurrently; every call returns only
// after the prober goroutine has exited and the connections are closed,
// and any control round trip after (or racing) Close fails instead of
// redialing a closed connection back open. The daemons keep running;
// Shutdown stops them too.
func (rc *RemoteCluster) Close() {
	rc.closeOnce.Do(func() {
		rc.closed.Store(true)
		if rc.hbStop != nil {
			close(rc.hbStop)
			<-rc.hbDone
		}
		for _, m := range rc.snapshotMembers() {
			m.ctl.close()
			m.probe.close()
		}
	})
}

// Shutdown asks every member daemon to stop serving (best-effort),
// drained tombstone shells included, then closes the client.
func (rc *RemoteCluster) Shutdown() {
	for _, m := range rc.snapshotMembers() {
		m.ctl.roundTrip(&envelope{Kind: msgShutdown}, rc.opts.AckTimeout)
	}
	rc.Close()
}

// ShutdownNode asks one member daemon to stop serving (best-effort) —
// the follow-up to Drain that lets an operator retire a drained
// tombstone shell's process without touching the rest of the cluster.
func (rc *RemoteCluster) ShutdownNode(node int) error {
	if rc.closed.Load() {
		return fmt.Errorf("wire: remote cluster is closed")
	}
	m := rc.member(node)
	if m == nil {
		return fmt.Errorf("wire: no member %d in a cluster of %d", node, rc.Size())
	}
	m.ctl.roundTrip(&envelope{Kind: msgShutdown}, rc.opts.AckTimeout)
	return nil
}
