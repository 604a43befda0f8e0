package obs

import (
	"fmt"
	"time"
)

// Kind identifies the typed event an Event carries. The set covers Verus
// control-loop transitions, the netsim packet life cycle and its delay
// attribution, fault-plan activations, checkpoints and transport liveness.
type Kind uint8

const (
	// KindVerusEpoch is one Verus estimation epoch (§4): V0=D_max EWMA (s),
	// V1=D_est target (s), V2=window W (pkts), V3=epoch quota S (pkts).
	KindVerusEpoch Kind = iota
	// KindVerusState is a protocol phase transition; Str is the new state,
	// V0 the window and V1 the delay target at the transition.
	KindVerusState
	// KindVerusRefit is a delay-profile re-interpolation: V0=knots,
	// V1=max observed window.
	KindVerusRefit
	// KindVerusTimeout is an RTO reaching the controller: V0=consecutive
	// timeouts, V1=restart slow-start cap (ssthresh analogue).
	KindVerusTimeout
	// KindVerusTimeoutEpoch marks a §4.2 timeout epoch opening ("open") or
	// closing on the first fresh ack ("close"); V0=stale acks discarded so
	// far.
	KindVerusTimeoutEpoch
	// KindVerusRelearn is a §4.2 full profile wipe after consecutive
	// timeouts; V0=total relearns.
	KindVerusRelearn
	// KindNetEnqueue is a packet accepted into a bottleneck queue:
	// V0=bytes, V1=queue length (pkts) after, V2=queued bytes after.
	KindNetEnqueue
	// KindNetDrop is a packet lost at the bottleneck: Str names the cause
	// ("queue" for an enqueue rejection — tail drop or AQM — and "loss" for
	// loss injection), V0=bytes.
	KindNetDrop
	// KindNetDeliver is a packet completing link service: V0=bytes,
	// V1=sojourn through the bottleneck so far (s, excl. propagation).
	KindNetDeliver
	// KindFaultBegin is a fault-plan window opening; Str is the event kind
	// ("outage", "handover"), V0=window length (s), V1=packets drained from
	// the queue on entry (outages).
	KindFaultBegin
	// KindFaultEnd is the matching window close; V0=packets burst-released
	// (handovers).
	KindFaultEnd
	// KindHandshake is a transport control-channel event; Str is the phase
	// ("probe", "ok", "fail"), V0=attempt number.
	KindHandshake
	// KindRTO is a transport retransmission timeout: V0=consecutive
	// timeouts (backoff level), V1=the next RTO (s).
	KindRTO
	// KindStall is a transport stall episode opening (no ack progress
	// through consecutive RTOs); V0=consecutive timeouts.
	KindStall
	// KindCheckpointWrite is a snapshot written at a mesh barrier:
	// V0=snapshot bytes, V1=checkpoint ordinal within the run (1-based),
	// V2=barrier virtual time (s).
	KindCheckpointWrite
	// KindCheckpointRestore is a run resumed from a snapshot: V0=snapshot
	// bytes, V1=the restored barrier virtual time (s).
	KindCheckpointRestore
	// KindNetAttrib is a delivered packet's one-way delay decomposition at
	// the sink: V0=queue wait, V1=serialization, V2=propagation, V3=fault
	// hold, V4=detour (all seconds), V5=the measured one-way delay, which
	// the first five sum to exactly.
	KindNetAttrib

	numKinds = iota
)

// kindMeta names each kind and its value slots for the exporters.
var kindMeta = [numKinds]struct {
	name   string
	fields [6]string
}{
	KindVerusEpoch:        {"verus.epoch", [6]string{"dmax", "dest", "w", "quota"}},
	KindVerusState:        {"verus.state", [6]string{"w", "dest"}},
	KindVerusRefit:        {"verus.refit", [6]string{"knots", "maxw"}},
	KindVerusTimeout:      {"verus.timeout", [6]string{"consec", "sscap"}},
	KindVerusTimeoutEpoch: {"verus.timeout_epoch", [6]string{"stale_acks"}},
	KindVerusRelearn:      {"verus.relearn", [6]string{"relearns"}},
	KindNetEnqueue:        {"net.enqueue", [6]string{"bytes", "qlen", "qbytes"}},
	KindNetDrop:           {"net.drop", [6]string{"bytes"}},
	KindNetDeliver:        {"net.deliver", [6]string{"bytes", "sojourn"}},
	KindFaultBegin:        {"fault.begin", [6]string{"dur", "drained"}},
	KindFaultEnd:          {"fault.end", [6]string{"released"}},
	KindHandshake:         {"transport.handshake", [6]string{"attempt"}},
	KindRTO:               {"transport.rto", [6]string{"consec", "rto"}},
	KindStall:             {"transport.stall", [6]string{"consec"}},
	KindCheckpointWrite:   {"ckpt.write", [6]string{"bytes", "n", "barrier"}},
	KindCheckpointRestore: {"ckpt.restore", [6]string{"bytes", "barrier"}},
	KindNetAttrib:         {"net.attrib", [6]string{"queue", "ser", "prop", "fault", "detour", "total"}},
}

// kindByName inverts kindMeta for the JSONL parser.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, meta := range kindMeta {
		m[meta.name] = Kind(k)
	}
	return m
}()

// String returns the stable dotted name ("verus.epoch") used by every
// exporter.
func (k Kind) String() string {
	if int(k) < len(kindMeta) {
		return kindMeta[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one structured trace record. It is a flat value — no pointers,
// no interfaces — so emitting one allocates nothing and the ring buffer is
// a single contiguous slab.
//
// At is simulation time in sim packages and the host time since Dial on
// the real-UDP path. Seq is the tracer-assigned
// emission sequence (a total order even when At ties). Run labels the trial
// (harnesses pass the derived per-trial seed) and Flow the flow index. Str
// and V0..V5 are kind-specific; see the Kind constants.
type Event struct {
	At   time.Duration
	Seq  uint64
	Kind Kind
	Flow int32
	Run  int64
	Str  string
	V0   float64
	V1   float64
	V2   float64
	V3   float64
	V4   float64
	V5   float64
}

// values returns the six value slots in order.
func (e *Event) values() [6]float64 {
	return [6]float64{e.V0, e.V1, e.V2, e.V3, e.V4, e.V5}
}
