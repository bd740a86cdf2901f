package shard

import (
	"fmt"
	"math/rand"

	"wsnva/internal/battery"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/radio"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
)

// diffShards are the engine shard counts every differential suite
// compares with the oracle.
var diffShards = []int{1, 2, 4, 8}

// runOracle is Run on the single-kernel oracle instead of the engine.
func runOracle(nw *deploy.Network, cfg Config) (*Result, error) {
	return runFloods(nw, cfg, oracleExecute)
}

// runLabelingOracle is RunLabeling on the single-kernel oracle.
func runLabelingOracle(m *field.BinaryMap, cfg Config) (*LabelResult, error) {
	return runLabeling(m, cfg, oracleExecute)
}

// oracleExecute is the oracle's executor: one singleFab runs the whole
// network whatever the shard and worker counts, and a single app instance
// drives every node.
func oracleExecute(nw *deploy.Network, st *State, model *cost.Model, _, _ int,
	mkApp func(shard int) app, hz hazards) runStats {
	fab := newSingleFab(nw, st, model, hz)
	rs := runStats{completion: fab.run(mkApp(0))}
	rs.sent, rs.delivered, rs.dropped = fab.med.Stats()
	rs.suspends, rs.resumes = fab.suspends, fab.resumes
	rs.energy = make([]cost.Energy, nw.N())
	for i := range rs.energy {
		rs.energy[i] = fab.med.Ledger().Energy(i)
	}
	rs.logs = fab.tracer.Take()
	return rs
}

// singleFab is the differential oracle: the same app API implemented
// over a second engine — one sim.Kernel driving a radio.Medium, with
// fault.Schedule.Arm arming the crashes and a stock battery.Bank metering
// the ledger. An engine run at any shard count must match this
// fabric bit for bit; the differential tests hold it to that. It runs on
// the identity layout: its State and inbox are indexed by node ID.
//
// The medium's own RNG is never consumed: loss comes from the
// counter-keyed StreamChannel (shared with the engine), whose draws are a
// pure function of (seed, sender, per-sender counter) — not of event
// interleaving.
type singleFab struct {
	med    *radio.Medium
	st     *State
	app    app
	bank   *battery.Bank
	hz     hazards
	tracer *trace.Tracer
	// in and drain are the wake machinery, as in shardRun.
	in    inbox
	drain func()

	suspends int64
	resumes  int64
}

// wirePkt carries a unicast's (key, payload) pair across the medium,
// which transports a single opaque payload. Broadcasts put the bare
// int64 key on the wire instead — the hot path stays allocation-free.
type wirePkt struct {
	key     int64
	payload any
}

func newSingleFab(nw *deploy.Network, st *State, model *cost.Model, hz hazards) *singleFab {
	kern := sim.New()
	ledger := cost.NewLedger(model, nw.N())
	var ch fault.Channel
	if hz.channel != nil {
		ch = hz.channel
	}
	med := radio.NewMedium(nw, kern, ledger, rand.New(rand.NewSource(1)), radio.Config{Channel: ch})
	f := &singleFab{med: med, st: st, hz: hz, in: inbox{st: st, slot: identity(nw.N())}}
	f.drain = func() { f.in.drain(f, f.app) }
	if hz.trace {
		f.tracer = trace.New()
		f.tracer.SetSink(hz.sink)
		med.SetTracer(f.tracer)
	}
	if hz.capacity > 0 {
		f.bank = battery.Uniform(nw.N(), hz.capacity)
		f.bank.Gasp(kern.Now)
		f.bank.OnDeplete(f.deplete)
		if f.tracer != nil {
			f.bank.SetTracer(f.tracer, kern.Now)
		}
		ledger.SetMeter(f.bank)
	}
	return f
}

// kill is the oracle's fail-stop, shardRun.kill's twin: radio off (one
// Death event unless the node already depleted) and the SoA liveness
// mirror cleared.
func (f *singleFab) kill(node int) {
	f.med.Kill(node)
	f.st.Alive[node] = false
}

// deplete is the oracle's battery death: instant-granularity radio
// expiry (the medium keeps delivering events stamped at the death
// instant) and the SoA liveness mirror.
func (f *singleFab) deplete(node int) {
	if !f.st.Alive[node] {
		return
	}
	f.med.Expire(node)
	f.st.Alive[node] = false
	f.st.GaspUntil[node] = f.med.Kernel().Now()
}

// run boots every node, drains the kernel, and returns the completion
// time (the timestamp of the last fired event). Crashes are armed
// before the apps start, so each crash event carries the lowest
// sequence number at its timestamp — the same before-everything
// ordering the sharded engine establishes by pre-scheduling crashes in
// newEngine.
func (f *singleFab) run(a app) sim.Time {
	f.app = a
	n := f.med.Network().N()
	f.hz.crashes.Arm(f.med.Kernel(), n, f.kill)
	// Churn transitions, scheduled after the crashes so a same-instant
	// crash fires first — matching the engine's pre-scheduling order.
	// The medium flips its own tri-state gate (and emits the Sleep/Wake
	// trace events); the SoA mirror keeps the drain's liveness gate and
	// the final state in step with it.
	for _, ce := range f.hz.churn {
		ce := ce
		kern := f.med.Kernel()
		kern.At(ce.At, func() {
			if ce.Op.Down() {
				if !f.st.Alive[ce.Node] || f.st.Suspended[ce.Node] {
					return
				}
				f.med.Suspend(ce.Node)
				f.st.Suspended[ce.Node] = true
				f.suspends++
				return
			}
			if !f.st.Alive[ce.Node] || !f.st.Suspended[ce.Node] {
				return
			}
			f.med.Resume(ce.Node)
			f.st.Suspended[ce.Node] = false
			f.resumes++
		})
	}
	f.med.SetReceiver(f.onPacket)
	for id := 0; id < n; id++ {
		a.start(f, id)
	}
	return f.med.Kernel().Run()
}

func (f *singleFab) now() sim.Time { return f.med.Kernel().Now() }

func (f *singleFab) broadcast(from int, size, key int64) {
	if size <= 0 {
		panic(fmt.Sprintf("shard: packet size %d must be positive", size))
	}
	f.med.Broadcast(from, size, key)
}

func (f *singleFab) unicast(from, to int, size, key int64, payload any) {
	if size <= 0 {
		panic(fmt.Sprintf("shard: packet size %d must be positive", size))
	}
	f.med.Unicast(from, to, size, wirePkt{key: key, payload: payload})
}

// land implements fabric: the medium has already gated, charged and
// traced every delivery, so there is nothing left to do.
func (f *singleFab) land(int32, []Packet, []int32, bool) {}

// onPacket queues a delivery into the inbox as one record with one
// receiver: the medium has already done shardRun.land's part, the
// liveness check, the Rx charge, and the trace emission.
func (f *singleFab) onPacket(id int, pkt radio.Packet) {
	var p Packet
	switch v := pkt.Payload.(type) {
	case int64:
		p = Packet{From: pkt.From, Size: pkt.Size, Key: v}
	case wirePkt:
		p = Packet{From: pkt.From, Size: pkt.Size, Key: v.key, Payload: v.payload}
	default:
		panic(fmt.Sprintf("shard: oracle received foreign payload %T", pkt.Payload))
	}
	if f.in.add(int32(id), p) {
		f.med.Kernel().After(0, f.drain)
	}
}

// add queues p for node n at the current instant, as one record with one
// receiver, the oracle's form of a delivery; the result is deliver's.
func (ib *inbox) add(n int32, p Packet) bool {
	return ib.deliver(p, []int32{n})
}

// identity is the identity layout's ID-to-slot map on n nodes.
func identity(n int) []int32 {
	id := make([]int32, n)
	for i := range id {
		id[i] = int32(i)
	}
	return id
}
