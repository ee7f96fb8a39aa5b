package wire

import "repro/internal/metrics"

// Metric names exposed by the wire runtime (see DESIGN.md §11). All
// values are cluster-wide aggregates over every node and daemon
// incarnation.
const (
	// Frames written to peer links, including fault-injected duplicate
	// copies and retransmissions; and their payload bytes.
	MetricFramesSent = "wire.frames.sent"
	MetricBytesSent  = "wire.bytes.sent"
	// Hop deliveries acknowledged by the destination.
	MetricFramesAcked = "wire.frames.acked"
	// Retry attempts after a missed acknowledgement.
	MetricFramesRetried = "wire.frames.retried"
	// Transmissions suppressed by the fault injector.
	MetricFramesDropped = "wire.frames.dropped"
	// Wall-clock microseconds from frame write to acknowledgement.
	MetricAckLatencyUS = "wire.ack.latency_us"
	// Times the exponential resend backoff was clamped at MaxRetryBackoff.
	MetricBackoffCeiling = "wire.backoff.ceiling_hits"
	// Outbound link dials (the first dial and every redial after a
	// link failure).
	MetricLinkDials = "wire.links.dials"
	// Daemon errors discarded because the cluster error channel was full.
	MetricErrorsDropped = "wire.errors.dropped"
	// Live entries in the hop dedup tables, and entries evicted by the
	// high-water retirement scheme.
	MetricDedupSize    = "wire.dedup.size"
	MetricDedupEvicted = "wire.dedup.evicted"
	// Agents currently checkpointed (in flight or mid-step).
	MetricCheckpoints = "wire.checkpoints.size"
	// Inbound connections currently registered with a daemon.
	MetricInboundConns = "wire.conns.inbound"
	// Agents injected and agents that reached a terminal Done.
	MetricAgentsInjected  = "wire.agents.injected"
	MetricAgentsCompleted = "wire.agents.completed"
	// Job namespaces holding live per-job counter slices across all
	// nodes (grows on first use of a namespace, shrinks on ReleaseJob).
	MetricJobsTracked = "wire.jobs.tracked"
	// Elasticity (DESIGN.md §16): agents shipped by the migration path
	// (marks and drain evacuations), agents rerouted around a departed
	// destination, agents currently parked by a freeze, fresh frames
	// refused by evacuated tombstone shells, and drains completed.
	MetricAgentsMigrated = "wire.agents.migrated"
	MetricAgentsRerouted = "wire.agents.rerouted"
	MetricAgentsParked   = "wire.agents.parked"
	MetricFramesRefused  = "wire.frames.refused"
	MetricDrains         = "wire.drains"
	// Node log (DESIGN.md §13.2): bytes written (appended batches and
	// compacted images), batches appended, and compactions.
	MetricLogBytes       = "wire.log.bytes"
	MetricLogBatches     = "wire.log.batches"
	MetricLogCompactions = "wire.log.compactions"
)

// wireMetrics holds the pre-resolved metric handles shared by every
// node state and daemon incarnation of a cluster, so hot paths pay one
// atomic operation per event and never touch the registry's map.
type wireMetrics struct {
	framesSent      *metrics.Counter
	bytesSent       *metrics.Counter
	framesAcked     *metrics.Counter
	framesRetried   *metrics.Counter
	framesDropped   *metrics.Counter
	ackLatency      *metrics.Histogram
	backoffCeiling  *metrics.Counter
	linkDials       *metrics.Counter
	errorsDropped   *metrics.Counter
	dedupEvicted    *metrics.Counter
	agentsInjected  *metrics.Counter
	agentsCompleted *metrics.Counter
	agentsMigrated  *metrics.Counter
	agentsRerouted  *metrics.Counter
	framesRefused   *metrics.Counter
	drains          *metrics.Counter
	logBytes        *metrics.Counter
	logBatches      *metrics.Counter
	logCompactions  *metrics.Counter
	dedupSize       *metrics.Gauge
	ckptSize        *metrics.Gauge
	inboundConns    *metrics.Gauge
	jobsTracked     *metrics.Gauge
	agentsParked    *metrics.Gauge
}

// ackLatencyBounds ladders from 50µs to ~1.6s; loopback acks land in
// the early buckets, retry-delayed ones spread up the tail.
var ackLatencyBounds = metrics.ExponentialBounds(50, 2, 16)

// newWireMetrics resolves every wire metric in r. A nil registry yields
// valid no-op handles, so instrumented code never branches.
func newWireMetrics(r *metrics.Registry) *wireMetrics {
	return &wireMetrics{
		framesSent:      r.Counter(MetricFramesSent),
		bytesSent:       r.Counter(MetricBytesSent),
		framesAcked:     r.Counter(MetricFramesAcked),
		framesRetried:   r.Counter(MetricFramesRetried),
		framesDropped:   r.Counter(MetricFramesDropped),
		ackLatency:      r.Histogram(MetricAckLatencyUS, ackLatencyBounds),
		backoffCeiling:  r.Counter(MetricBackoffCeiling),
		linkDials:       r.Counter(MetricLinkDials),
		errorsDropped:   r.Counter(MetricErrorsDropped),
		dedupEvicted:    r.Counter(MetricDedupEvicted),
		agentsInjected:  r.Counter(MetricAgentsInjected),
		agentsCompleted: r.Counter(MetricAgentsCompleted),
		agentsMigrated:  r.Counter(MetricAgentsMigrated),
		agentsRerouted:  r.Counter(MetricAgentsRerouted),
		framesRefused:   r.Counter(MetricFramesRefused),
		drains:          r.Counter(MetricDrains),
		logBytes:        r.Counter(MetricLogBytes),
		logBatches:      r.Counter(MetricLogBatches),
		logCompactions:  r.Counter(MetricLogCompactions),
		dedupSize:       r.Gauge(MetricDedupSize),
		ckptSize:        r.Gauge(MetricCheckpoints),
		inboundConns:    r.Gauge(MetricInboundConns),
		jobsTracked:     r.Gauge(MetricJobsTracked),
		agentsParked:    r.Gauge(MetricAgentsParked),
	}
}
