// Package core implements the paper's subject: the coherence controller of
// an SMP-based CC-NUMA node. The controller bridges the node's snooping SMP
// bus and the interconnection network, synthesizing global cache coherence
// with a full-bit-map directory protocol. It contains:
//
//   - three input queues (bus-side requests, network-side requests,
//     network-side responses) with the paper's dispatch arbitration policy:
//     responses first, then network requests, then bus requests, except
//     that a bus request that has waited through LivelockLimit consecutive
//     network-request dispatches proceeds first;
//   - one or two protocol engines (HWC finite-state machines or PPC
//     protocol processors) whose handler occupancies come from the
//     sub-operation sequences in the protocol package and the Table 2 cost
//     model;
//   - under the two-engine split, an LPE serving local-home addresses
//     (the only engine that touches the directory) and an RPE serving
//     remote-home addresses, as in S3.mp;
//   - the direct bus-interface/network-interface data path that forwards
//     dirty-remote write-backs to the home node without handler dispatch.
package core

import (
	"fmt"
	"sort"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/directory"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
)

// work is one queued protocol request: either a deferred bus transaction or
// a network message. Input queues and waiter lists hold work by value.
type work struct {
	arrival sim.Time
	txn     *smpbus.Txn
	msg     *protocol.Msg
	// parked marks a dispatched item whose handler parked a copy on a
	// waiter list: the copy owns the message from then on, so dispatch
	// must not release it.
	parked bool
}

// workQueue is a FIFO of work held by value. take advances a head index
// instead of reslicing, and push compacts the live items to the front
// when the backing array is full, so a queue grows to its high-water
// depth once and then allocates nothing.
type workQueue struct {
	items []work
	head  int
}

func (q *workQueue) len() int { return len(q.items) - q.head }

// all returns the queued items, head first.
func (q *workQueue) all() []work { return q.items[q.head:] }

// front returns the head item; the queue must not be empty.
func (q *workQueue) front() *work { return &q.items[q.head] }

func (q *workQueue) push(w work) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, w)
}

// take removes and returns the head item; the queue must not be empty.
func (q *workQueue) take() work {
	w := q.items[q.head]
	q.items[q.head] = work{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return w
}

// label names the queued request for tracing (a constant-table string).
func (w *work) label() string {
	if w.txn != nil {
		return w.txn.Kind.String()
	}
	return w.msg.Type.String()
}

// spanTxn resolves the causal-span identity of queued work: deferred bus
// transactions carry the requester's episode ID with no epoch; network
// messages echo both the ID and the request epoch.
func (w *work) spanTxn() (uint64, uint32) {
	if w.txn != nil {
		return w.txn.Attr, 0
	}
	return w.msg.Txn, w.msg.Epoch
}

// homeOp is a transient home-node operation on a local line.
type homeOp struct {
	line      uint64
	excl      bool
	requester int         // remote requester node, or -1 when local
	parked    *smpbus.Txn // parked local bus transaction (requester == -1)
	upgrade   bool        // parked transaction is an upgrade (no data)

	// epoch echoes the requesting episode's tag into the grant (zero for
	// local requesters and with the robustness knobs off). txn is the
	// remote requester's causal-span ID, echoed the same way.
	epoch uint32
	txn   uint64

	acksLeft     int
	needData     bool
	haveData     bool
	intervention bool // fetch forwarded to a remote owner, response pending
	waitWB       bool // intervention missed; waiting for the eviction WB
	wbArrived    bool
	finishing    bool // response issued; retirement pending on the bus reply
	// data is the shadow line value collected for the response (from the
	// home fetch, the owner's data message, or an in-flight write-back).
	data uint64
	// finalDir is written to the directory when the op completes.
	finalDir directory.Entry

	waiters []work
}

// spanTxn resolves the causal-span identity of the op's requester: local
// requesters are identified by their parked bus transaction, remote ones
// by the ID echoed from the request message.
func (op *homeOp) spanTxn() (uint64, uint32) {
	if op.parked != nil {
		return op.parked.Attr, 0
	}
	return op.txn, op.epoch
}

func (op *homeOp) ready() bool {
	return !op.intervention && op.acksLeft == 0 &&
		(!op.needData || op.haveData) && (!op.waitWB || op.wbArrived)
}

// mshrEntry tracks one outstanding request from this node to a remote home.
type mshrEntry struct {
	line   uint64
	excl   bool
	parked *smpbus.Txn
	// responseArrived is set the moment a data response for this miss
	// reaches the node (it may still be waiting in an input queue). Under
	// the round-robin engine split an intervention for the same line can
	// otherwise be dispatched by the other engine ahead of the response.
	responseArrived bool
	filling         bool // response dispatched, bus supply in flight
	// data is the shadow line value delivered by the data response.
	data    uint64
	waiters []work

	// Robustness state (zero and unused with the recovery knobs off).
	// issuedAt is when the request was first sent; attempts counts NACKs
	// and timeouts consumed against Config.RetryBudget; timeoutSeq
	// invalidates stale timeout events after a re-issue; epoch tags the
	// episode's messages so stale grants from a closed episode are dropped.
	issuedAt   sim.Time
	attempts   int
	timeoutSeq int
	epoch      uint32
}

// Controller is one node's coherence controller.
type Controller struct {
	eng   *sim.Engine
	cfg   *config.Config
	node  int
	bus   *smpbus.Bus
	net   *interconnect.Network
	dir   *directory.Directory
	space *memaddr.Space
	st    *stats.ControllerStats
	tr    *obs.Tracer // nil when tracing and attribution are off

	// kind is this node's protocol-engine implementation; on heterogeneous
	// machines (Config.NodeArchs) it differs per controller, so occupancy
	// lookups must go through it rather than cfg.Engine.
	kind    config.EngineKind
	engines []*engine
	rr      int

	homeOps map[uint64]*homeOp
	mshr    map[uint64]*mshrEntry

	handlerCounts [protocol.NumHandlers]uint64
	handlerBusy   [protocol.NumHandlers]sim.Time

	// epochCtr mints request-episode tags for outgoing ReadReq/ReadExReq
	// (see protocol.Msg.Epoch).
	epochCtr uint32

	// hook observes dispatches and sends for the model conformance harness
	// (nil in normal runs). curTrigger/curHandler identify the dispatch in
	// progress so synchronous sends can be attributed to their rule;
	// inDispatch distinguishes them from closure-deferred sends.
	hook       ConformanceHook
	inDispatch bool
	curTrigger string
	curHandler protocol.Handler

	// forceNack counts pending one-shot forced NI bounces (ForceNackNext).
	forceNack int

	// slots is the free list of transaction slots, and msgs the free list
	// of message bodies (see slot). A body sent by one controller is
	// released into the receiving controller's list, so each list is only
	// touched by its own node's events.
	slots []*slot
	msgs  []*protocol.Msg
}

// engine is one protocol engine (FSM or protocol processor) with its input
// queues.
type engine struct {
	cc        *Controller
	idx       int
	busQ      workQueue
	reqQ      workQueue
	respQ     workQueue
	busy      bool
	netStreak int // consecutive network-request dispatches while bus waits
	// cur is the item in service: pick moves the queue head here. An
	// engine never dispatches while busy, so one slot per engine suffices.
	cur work
	// doneFn ends a handler's occupancy and re-arbitrates (bound once).
	doneFn func()
}

// slot is one controller-owned transaction buffer, the model's
// counterpart of the fixed set of buffers a hardware coherence controller
// keeps for its outstanding work. A slot holds one of three things: a bus
// transaction the controller issues (txn, whose final outcome goes to
// done), an action deferred to a later cycle or to a bus completion (run),
// or an outgoing message waiting for its send cycle (msg, dst). The fields
// between txn and run are the context those callbacks read. A slot's
// callbacks are bound once, when it is first made, and the bodies handed
// in are function literals that capture nothing (they take the controller
// and the slot as parameters), so taking and reusing a slot allocates
// nothing.
type slot struct {
	txn smpbus.Txn
	cc  *Controller

	op        *homeOp
	m         *mshrEntry
	msg       *protocol.Msg
	dst       int // send destination, or the home node an intervention answers
	requester int
	exclusive bool
	fromHome  bool
	shared    bool
	spanID    uint64
	spanEpoch uint32

	run  func(cc *Controller, s *slot)
	done func(cc *Controller, s *slot, o smpbus.Outcome)
	// runFn runs run and then releases the slot; issueFn issues txn.
	runFn, issueFn func()
}

// complete receives the outcome of the slot's bus transaction. A
// RetryNeeded bounce (a live processor transfer on the line is mid-flight)
// re-issues the same slot after the bus back-off, so the slot stays taken;
// any other outcome is final: done runs, then the slot is released.
func (s *slot) complete(o smpbus.Outcome) {
	cc := s.cc
	if o.Status == smpbus.RetryNeeded {
		cc.eng.After(cc.cfg.BusRetry, s.issueFn)
		return
	}
	if s.done != nil {
		s.done(cc, s, o)
	}
	cc.release(s)
}

// New creates a controller, attaching it to the node's bus and to the
// network. st receives the controller's measurements (may be a throwaway
// for unit tests); tr may be nil to disable tracing.
func New(eng *sim.Engine, cfg *config.Config, node int, bus *smpbus.Bus,
	net *interconnect.Network, dir *directory.Directory, space *memaddr.Space,
	st *stats.ControllerStats, tr *obs.Tracer) *Controller {

	cc := &Controller{
		eng:     eng,
		cfg:     cfg,
		node:    node,
		bus:     bus,
		net:     net,
		dir:     dir,
		space:   space,
		st:      st,
		tr:      tr,
		kind:    cfg.NodeEngineKind(node),
		homeOps: make(map[uint64]*homeOp),
		mshr:    make(map[uint64]*mshrEntry),
	}
	for i := 0; i < cfg.NodeEngineCount(node); i++ {
		e := &engine{cc: cc, idx: i}
		e.doneFn = func() {
			e.busy = false
			e.kick()
		}
		cc.engines = append(cc.engines, e)
	}
	bus.AttachController(cc)
	net.Attach(node, cc.deliver)
	return cc
}

// HandlerCount returns how many times handler h was dispatched.
func (cc *Controller) HandlerCount(h protocol.Handler) uint64 {
	return cc.handlerCounts[h]
}

// HandlerBusy returns the total engine occupancy charged by handler h.
func (cc *Controller) HandlerBusy(h protocol.Handler) sim.Time {
	return cc.handlerBusy[h]
}

// PendingOps reports outstanding transient state (for end-of-run checks).
func (cc *Controller) PendingOps() int { return len(cc.homeOps) + len(cc.mshr) }

// QueueDepths returns engine i's input-queue depths (for the sampler and
// stall snapshots).
func (cc *Controller) QueueDepths(i int) (resp, req, bus int) {
	e := cc.engines[i]
	return e.respQ.len(), e.reqQ.len(), e.busQ.len()
}

// EngineBusy reports whether engine i is executing a handler right now.
func (cc *Controller) EngineBusy(i int) bool { return cc.engines[i].busy }

// DumpPending describes outstanding transient state for deadlock
// diagnostics (map iteration is sorted by line so the dump is
// deterministic).
func (cc *Controller) DumpPending() string {
	var b strings.Builder
	lines := make([]uint64, 0, len(cc.homeOps))
	for line := range cc.homeOps {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		op := cc.homeOps[line]
		fmt.Fprintf(&b, "node %d homeOp line=%#x excl=%v req=%d acks=%d needData=%v haveData=%v interv=%v waitWB=%v wbArr=%v upgrade=%v waiters=%d\n",
			cc.node, line, op.excl, op.requester, op.acksLeft, op.needData,
			op.haveData, op.intervention, op.waitWB, op.wbArrived, op.upgrade, len(op.waiters))
	}
	lines = lines[:0]
	for line := range cc.mshr {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		m := cc.mshr[line]
		fmt.Fprintf(&b, "node %d mshr line=%#x excl=%v filling=%v waiters=%d\n",
			cc.node, line, m.excl, m.filling, len(m.waiters))
	}
	for i, e := range cc.engines {
		fmt.Fprintf(&b, "node %d engine %d busy=%v busQ=%d reqQ=%d respQ=%d\n",
			cc.node, i, e.busy, e.busQ.len(), e.reqQ.len(), e.respQ.len())
	}
	return b.String()
}

// StateSnapshot renders the controller's complete transient state as a
// deterministic string (map iteration is sorted by line). Two controllers
// with equal snapshots will behave identically given identical future
// inputs; the ccverify model checker folds snapshots into its abstract
// state hash.
func (cc *Controller) StateSnapshot() string {
	var b strings.Builder
	lines := make([]uint64, 0, len(cc.homeOps))
	for line := range cc.homeOps {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		op := cc.homeOps[line]
		fmt.Fprintf(&b, "h%#x:e%vr%da%dn%vd%vi%vw%vb%vf%vu%vq%d;",
			line, op.excl, op.requester, op.acksLeft, op.needData, op.haveData,
			op.intervention, op.waitWB, op.wbArrived, op.finishing, op.upgrade,
			len(op.waiters))
	}
	lines = lines[:0]
	for line := range cc.mshr {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		m := cc.mshr[line]
		fmt.Fprintf(&b, "m%#x:e%vr%vf%vq%d;", line, m.excl, m.responseArrived,
			m.filling, len(m.waiters))
	}
	for i, e := range cc.engines {
		fmt.Fprintf(&b, "e%d:b%vs%d", i, e.busy, e.netStreak)
		for _, w := range e.respQ.all() {
			fmt.Fprintf(&b, "R%s@%#x", w.label(), cc.lineOf(&w))
		}
		for _, w := range e.reqQ.all() {
			fmt.Fprintf(&b, "Q%s@%#x", w.label(), cc.lineOf(&w))
		}
		for _, w := range e.busQ.all() {
			fmt.Fprintf(&b, "B%s@%#x", w.label(), cc.lineOf(&w))
		}
		b.WriteByte(';')
	}
	return b.String()
}

func (cc *Controller) costs() *config.CostTable { return &cc.cfg.Costs }

func (cc *Controller) cost(op config.SubOp) sim.Time {
	return cc.cfg.Costs.Cost(cc.kind, op)
}

// engineFor selects the engine serving a line per the split policy.
func (cc *Controller) engineFor(line uint64) *engine {
	if len(cc.engines) == 1 {
		return cc.engines[0]
	}
	switch cc.cfg.Split {
	case config.SplitRoundRobin:
		cc.rr = (cc.rr + 1) % len(cc.engines)
		return cc.engines[cc.rr]
	case config.SplitDynamic:
		// Shortest-queue assignment (ties to the lowest index keep it
		// deterministic).
		best := cc.engines[0]
		bestLen := best.queueLen()
		for _, e := range cc.engines[1:] {
			if l := e.queueLen(); l < bestLen {
				best, bestLen = e, l
			}
		}
		return best
	case config.SplitRegion:
		// Memory regions interleave across all engines (Section 5's
		// "more protocol engines for different regions of memory").
		idx := int(line>>cc.cfg.RegionShift()) % len(cc.engines)
		return cc.engines[idx]
	default:
		if cc.space.Home(line) == cc.node {
			return cc.engines[0] // LPE
		}
		return cc.engines[1] // RPE
	}
}

// ---- bus-facing interface -------------------------------------------------

// Snoop implements the bus-side directory filter: it claims transactions
// that need protocol action and lets the memory controller or sibling
// caches serve the rest. It is side-effect-free (a claimed transaction is
// handed over via AcceptDeferred).
func (cc *Controller) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.Kind == smpbus.WriteBack {
		// Write-backs never need a deferred reply; remote ones arrive via
		// the direct data path (CaptureWriteBack).
		return smpbus.SnoopNone
	}
	if !txn.HomeLocal {
		// Remote-home line: if no sibling cache supplies it, the request
		// must travel to the home node.
		return smpbus.SnoopDefer
	}
	if cc.homeOps[txn.Line] != nil {
		return smpbus.SnoopDefer
	}
	e := cc.dir.Lookup(txn.Line)
	switch txn.Kind {
	case smpbus.Read:
		if e.State == directory.DirtyRemote {
			return smpbus.SnoopDefer
		}
		if e.State == directory.SharedRemote {
			// Memory may respond, but the requester must install Shared:
			// remote nodes hold copies.
			return smpbus.SnoopShared
		}
		return smpbus.SnoopNone
	case smpbus.ReadEx, smpbus.Upgrade:
		if e.State != directory.NoRemote {
			return smpbus.SnoopDefer
		}
		return smpbus.SnoopNone
	default:
		// Controller-issued kinds (Inval/Fetch/FetchEx) and deferred
		// replies never snoop their own controller.
		panic(fmt.Sprintf("core: controller snooped unexpected kind %v line %#x", txn.Kind, txn.Line))
	}
}

// AcceptDeferred receives a bus transaction the snoop claimed. With a
// finite QueueDepth, a full bus queue aborts the transaction on the bus
// instead: the requesting processor sees RetryNeeded and backs off.
func (cc *Controller) AcceptDeferred(txn *smpbus.Txn) {
	e := cc.engineFor(txn.Line)
	if cc.cfg.QueueDepth > 0 && e.busQ.len() >= cc.cfg.QueueDepth {
		cc.st.BusAborts++
		cc.bus.Abort(txn)
		return
	}
	w := work{arrival: cc.eng.Now(), txn: txn}
	cc.st.NoteArrival(w.arrival)
	e.enqueue(w)
}

// CaptureWriteBack implements the direct data path: a dirty-remote
// write-back is forwarded to the home node without dispatching a protocol
// handler.
func (cc *Controller) CaptureWriteBack(line uint64, sharedLeft bool, data uint64) {
	home := cc.space.Home(line)
	if home == cc.node {
		panic("core: direct data path invoked for a local line")
	}
	cc.send(cc.eng.Now(), home, &protocol.Msg{
		Type: protocol.MsgWriteBack, Line: line, Src: cc.node,
		Dirty: true, SharedLeft: sharedLeft, Data: data,
	})
}

// ---- network-facing interface ---------------------------------------------

func (cc *Controller) deliver(src int, payload interface{}) {
	msg, ok := payload.(*protocol.Msg)
	if !ok {
		panic(fmt.Sprintf("core: unexpected payload %T", payload))
	}
	w := work{arrival: cc.eng.Now(), msg: msg}
	e := cc.engineFor(msg.Line)
	if msg.IsResponse() {
		isData := msg.Type == protocol.MsgDataShared ||
			msg.Type == protocol.MsgDataExcl || msg.Type == protocol.MsgOwnerData
		if isData {
			// A stale grant (an epoch a retried request already closed)
			// must not mark the current episode as answered: it will be
			// dropped at dispatch, and flagging it here would suppress the
			// episode's timeout and NACK retries.
			if m := cc.mshr[msg.Line]; m != nil && (!cc.cfg.Robust() || msg.Epoch == m.epoch) {
				m.responseArrived = true
			}
		}
	} else {
		// Finite request queue: a NACKable request arriving at a full
		// queue is bounced straight back by the NI, without consuming a
		// handler dispatch. Non-NACKable requests (forwarded interventions,
		// invalidations, write-backs) ride guaranteed channels with
		// reserved buffering and are always accepted.
		full := cc.cfg.QueueDepth > 0 && e.reqQ.len() >= cc.cfg.QueueDepth
		if msg.Nackable() && (full || cc.forceNack > 0) {
			if !full {
				cc.forceNack--
			}
			cc.st.NacksSent++
			cc.tr.Nack(w.arrival, cc.node, e.idx, msg.Type.String(), msg.Line)
			cc.send(w.arrival, msg.Requester, &protocol.Msg{
				Type: protocol.MsgNack, Line: msg.Line, Src: cc.node,
				Requester: msg.Requester, Excl: msg.Type == protocol.MsgReadExReq,
				Epoch: msg.Epoch, Txn: msg.Txn,
			})
			cc.freeMsg(msg)
			return
		}
	}
	cc.st.NoteArrival(w.arrival)
	e.enqueue(w)
}

// StallEngine occupies an idle protocol engine for dur cycles (fault
// injection: a transient engine stall). It reports whether the stall was
// applied; a busy engine is already stalled and absorbs the fault.
func (cc *Controller) StallEngine(idx int, dur sim.Time) bool {
	if len(cc.engines) == 0 || dur <= 0 {
		return false
	}
	e := cc.engines[idx%len(cc.engines)]
	if e.busy {
		return false
	}
	e.busy = true
	cc.eng.After(dur, func() {
		e.busy = false
		e.kick()
	})
	return true
}

func (cc *Controller) send(at sim.Time, dst int, msg *protocol.Msg) {
	if dst == cc.node {
		panic(fmt.Sprintf("core: node %d sending %v to itself", dst, msg.Type))
	}
	if dst < 0 {
		panic(fmt.Sprintf("core: message %v to unmapped home %d (line %#x)", msg.Type, dst, msg.Line))
	}
	if cc.hook != nil {
		cc.hook.Send(cc.node, cc.inDispatch, cc.curTrigger, cc.curHandler, msg.Type)
	}
	s := cc.takeSlot()
	s.dst = dst
	s.msg = cc.newMsg()
	*s.msg = *msg
	cc.at(at, s, func(cc *Controller, s *slot) {
		cc.net.Send(cc.node, s.dst, s.msg.Flits(cc.cfg), s.msg)
	})
}

// ---- slots ----------------------------------------------------------------

// takeSlot returns a free slot, making (and binding) one when none is free.
func (cc *Controller) takeSlot() *slot {
	if n := len(cc.slots); n > 0 {
		s := cc.slots[n-1]
		cc.slots = cc.slots[:n-1]
		return s
	}
	s := &slot{cc: cc}
	s.txn = smpbus.Txn{Src: smpbus.CCSrc, Done: s.complete}
	s.runFn = func() {
		s.run(s.cc, s)
		s.cc.release(s)
	}
	s.issueFn = func() { s.cc.bus.Issue(&s.txn) }
	return s
}

// opSlot takes a slot carrying op.
func (cc *Controller) opSlot(op *homeOp) *slot {
	s := cc.takeSlot()
	s.op = op
	return s
}

// release returns s to the free list. Nothing may still reach s: its bus
// transaction has had its final outcome, or its action has run.
func (cc *Controller) release(s *slot) {
	s.op, s.m, s.msg, s.run, s.done = nil, nil, nil, nil, nil
	cc.slots = append(cc.slots, s)
}

// at runs fn(cc, s) at cycle t and then releases s.
func (cc *Controller) at(t sim.Time, s *slot, fn func(cc *Controller, s *slot)) {
	s.run = fn
	cc.eng.At(t, s.runFn)
}

// onComplete runs fn(cc, s) right after the current issue of txn completes
// (txn's one-shot completion hook) and then releases s.
func (cc *Controller) onComplete(txn *smpbus.Txn, s *slot, fn func(cc *Controller, s *slot)) {
	s.run = fn
	txn.OnComplete(s.runFn)
}

// issueAt issues s's bus transaction at cycle t. done (nil for
// fire-and-forget transactions) receives the final outcome before the slot
// is released.
func (cc *Controller) issueAt(t sim.Time, s *slot, kind smpbus.Kind, line uint64, homeLocal bool, data uint64,
	done func(cc *Controller, s *slot, o smpbus.Outcome)) {
	s.txn.Kind, s.txn.Line, s.txn.HomeLocal, s.txn.Data = kind, line, homeLocal, data
	s.done = done
	cc.eng.At(t, s.issueFn)
}

// newMsg returns a message body from the free list, or a fresh one.
func (cc *Controller) newMsg() *protocol.Msg {
	if n := len(cc.msgs); n > 0 {
		m := cc.msgs[n-1]
		cc.msgs = cc.msgs[:n-1]
		return m
	}
	return new(protocol.Msg)
}

// freeMsg releases a delivered message body into this (the receiving)
// controller's free list. The caller must hold the last reference: the
// message was dropped, or its work item was dispatched without parking.
func (cc *Controller) freeMsg(m *protocol.Msg) { cc.msgs = append(cc.msgs, m) }

// ---- dispatch -------------------------------------------------------------

// queueLen returns the engine's total queued work plus any in-service
// handler (the dynamic split's load metric).
func (e *engine) queueLen() int {
	n := e.busQ.len() + e.reqQ.len() + e.respQ.len()
	if e.busy {
		n++
	}
	return n
}

// enqueue appends w to the input queue its kind selects — deferred bus
// transactions to busQ, network responses to respQ, network requests to
// reqQ — records the insertion, opens w's controller-queue span, and
// kicks the engine.
func (e *engine) enqueue(w work) {
	q, queue := obs.QReq, &e.reqQ
	switch {
	case w.txn != nil:
		q, queue = obs.QBus, &e.busQ
	case w.msg.IsResponse():
		q, queue = obs.QResp, &e.respQ
	}
	queue.push(w)
	if cc := e.cc; cc.tr != nil {
		cc.tr.Enqueue(w.arrival, cc.node, e.idx, q, queue.len(), w.label(), cc.lineOf(&w))
		txn, epoch := w.spanTxn()
		cc.tr.SpanBegin(txn, obs.StageCCQueue, epoch, w.arrival)
	}
	e.kick()
}

// kick starts a dispatch if the engine is idle and work is queued.
func (e *engine) kick() {
	if e.busy {
		return
	}
	w := e.pick()
	if w == nil {
		return
	}
	e.dispatch(w)
}

// take moves the head of queue into the engine's in-service slot, tracing
// the removal.
func (e *engine) take(queue *workQueue, q int) *work {
	e.cur = queue.take()
	e.cc.tr.Dequeue(e.cc.eng.Now(), e.cc.node, e.idx, q, queue.len(), e.cc.lineOf(&e.cur))
	return &e.cur
}

// pick removes and returns the next work item per the arbitration policy.
func (e *engine) pick() *work {
	if e.cc.cfg.Arbitration == config.ArbFIFO {
		return e.pickFIFO()
	}
	// Paper policy: responses, then network requests, then bus requests —
	// with the anti-livelock exception for long-waiting bus requests.
	if e.respQ.len() > 0 {
		return e.take(&e.respQ, obs.QResp)
	}
	if e.busQ.len() > 0 && e.reqQ.len() > 0 && e.netStreak >= e.cc.cfg.LivelockLimit {
		e.netStreak = 0
		return e.take(&e.busQ, obs.QBus)
	}
	if e.reqQ.len() > 0 {
		if e.busQ.len() > 0 {
			e.netStreak++
		}
		return e.take(&e.reqQ, obs.QReq)
	}
	if e.busQ.len() > 0 {
		e.netStreak = 0
		return e.take(&e.busQ, obs.QBus)
	}
	return nil
}

func (e *engine) pickFIFO() *work {
	best := -1 // 0=resp 1=req 2=bus
	var bestAt sim.Time
	if e.respQ.len() > 0 {
		best, bestAt = 0, e.respQ.front().arrival
	}
	if e.reqQ.len() > 0 && (best < 0 || e.reqQ.front().arrival < bestAt) {
		best, bestAt = 1, e.reqQ.front().arrival
	}
	if e.busQ.len() > 0 && (best < 0 || e.busQ.front().arrival < bestAt) {
		best = 2
	}
	switch best {
	case 0:
		return e.take(&e.respQ, obs.QResp)
	case 1:
		return e.take(&e.reqQ, obs.QReq)
	case 2:
		return e.take(&e.busQ, obs.QBus)
	}
	return nil
}

// dispatch runs w's handler, occupying the engine for the handler's
// occupancy, then re-arbitrates. A network message that the handler did
// not park on a waiter list is done with once the handler returns, and its
// body goes back to this controller's free list.
func (e *engine) dispatch(w *work) {
	cc := e.cc
	now := cc.eng.Now()
	est := &cc.st.Engines[e.idx]
	est.Dispatches++
	est.QueueDelay += now - w.arrival
	est.QueueDelayHist.Add(now - w.arrival)
	if cc.tr != nil {
		txn, epoch := w.spanTxn()
		cc.tr.SpanEnd(txn, obs.StageCCQueue, epoch, now)
	}

	e.busy = true
	if cc.hook != nil {
		cc.inDispatch = true
		cc.curTrigger = w.trigger()
		cc.curHandler = -1
	}
	var occ sim.Time
	if w.txn != nil {
		occ = cc.handleBusTxn(w)
	} else {
		occ = cc.handleMsg(w)
	}
	cc.inDispatch = false
	if occ <= 0 {
		panic("core: handler with non-positive occupancy")
	}
	est.Busy += occ
	if cc.tr.Enabled() {
		cc.tr.Dispatch(now, cc.node, e.idx, w.label(), cc.lineOf(w), occ, now-w.arrival)
	}
	cc.eng.At(now+occ, e.doneFn)
	if w.msg != nil && !w.parked {
		cc.freeMsg(w.msg)
	}
	*w = work{}
}

// charge computes a handler's total occupancy and its action time (the
// cycle at which the handler's externally visible action — bus request or
// network send — is issued). dirExtra is a directory-DRAM stall inserted
// before the action; extraInvals adds per-invalidation fan-out work.
func (cc *Controller) charge(h protocol.Handler, dirExtra sim.Time, extraInvals int) (occ sim.Time, actionAt sim.Time) {
	cc.handlerCounts[h]++
	if cc.hook != nil && cc.inDispatch && cc.curHandler < 0 {
		cc.curHandler = h
		cc.hook.Dispatch(cc.node, cc.curTrigger, h)
	}
	k := cc.kind
	disp := cc.cfg.Costs.Cost(k, config.OpDispatch)
	// Handlers that fetch the line over the local bus keep the engine
	// occupied for the no-contention access time (the paper's handler
	// occupancies include SMP bus and local memory access times); the
	// fetch is issued at the action point and the engine stalls after it.
	stall := protocol.StallTime(cc.cfg, protocol.Stall(h))
	occ = disp + protocol.Occupancy(cc.costs(), k, h, extraInvals) + dirExtra + stall
	cc.handlerBusy[h] += occ
	actionAt = cc.eng.Now() + disp +
		protocol.PrefixOccupancy(cc.costs(), k, h, protocol.ActionIndex(h)) + dirExtra
	return occ, actionAt
}

// homeFetchStall is the engine stall charged by state-dependent paths that
// fetch from home memory under a handler whose common case does not.
func (cc *Controller) homeFetchStall() sim.Time {
	return protocol.StallTime(cc.cfg, protocol.StallHomeFetch)
}

// perInvalCost is the engine time per additional invalidation sent.
func (cc *Controller) perInvalCost() sim.Time {
	var t sim.Time
	for _, op := range protocol.PerInvalOps {
		t += cc.cfg.Costs.Cost(cc.kind, op)
	}
	return t
}

// requeue parks a copy of w on a waiter list with the busy-check
// occupancy; the copy now owns w's message.
func (cc *Controller) requeue(list *[]work, w *work) sim.Time {
	occ, _ := cc.charge(protocol.HBusyRequeue, 0, 0)
	*list = append(*list, *w)
	w.parked = true
	return occ
}

// replay re-enqueues parked work after the blocking state cleared.
func (cc *Controller) replay(ws []work) {
	for _, w := range ws {
		w.arrival = cc.eng.Now()
		cc.engineFor(cc.lineOf(&w)).enqueue(w)
	}
}

func (cc *Controller) lineOf(w *work) uint64 {
	if w.txn != nil {
		return w.txn.Line
	}
	return w.msg.Line
}
