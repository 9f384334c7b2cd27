package core

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/directory"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/protocol"
	"ccnuma/internal/smpbus"
)

// The tests below pin the release point of each controller-owned slot
// kind: each fails if its release moves one step earlier.

// TestParkedMessageKeepsItsBody pins the message-body release: a
// dispatched message goes back to the free list once its handler is done
// with it, unless the handler parked it on a waiter list. Releasing at
// dispatch regardless would let the next send reuse a body that is still
// waiting to be replayed.
func TestParkedMessageKeepsItsBody(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	line := r.space.AllocOnNode(4096, 0)
	op := &homeOp{line: line, requester: -1}
	cc.homeOps[line] = op
	parked := &protocol.Msg{Type: protocol.MsgReadReq, Line: line, Src: 1, Requester: 1}
	other := line + uint64(r.cfg.LineSize)
	done := &protocol.Msg{Type: protocol.MsgWriteBack, Line: other, Src: 1}
	r.eng.At(0, func() {
		cc.deliver(1, parked)
		cc.deliver(1, done)
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(op.waiters) != 1 || op.waiters[0].msg != parked {
		t.Fatalf("the read request was not parked behind the home op: %+v", op.waiters)
	}
	free := map[*protocol.Msg]bool{}
	for _, m := range cc.msgs {
		free[m] = true
	}
	if free[parked] {
		t.Error("a parked message is on the free list")
	}
	if !free[done] {
		t.Error("a dispatched write-back that did not park was not released")
	}
}

// TestSendCopiesIntoHeldSlot pins the send-slot release: send copies the
// message into a slot that stays taken until its send cycle. Two sends
// scheduled for the same later cycle must leave with their own fields,
// and changing the caller's message after send must not leak into the
// one on the wire.
func TestSendCopiesIntoHeldSlot(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Nodes = 4 })
	cc := r.ccs[0]
	type sent struct {
		dst  int
		typ  protocol.MsgType
		line uint64
	}
	var got []sent
	r.net.Fault = func(src, dst int, p interface{}) interconnect.Decision {
		m := p.(*protocol.Msg)
		got = append(got, sent{dst, m.Type, m.Line})
		return interconnect.Decision{Drop: true}
	}
	r.eng.At(0, func() {
		msg := &protocol.Msg{Type: protocol.MsgInval, Line: 0x1000, Src: 0}
		cc.send(10, 1, msg)
		msg.Line = 0xdead
		cc.send(10, 2, &protocol.Msg{Type: protocol.MsgFetchReq, Line: 0x2000, Src: 0})
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sent{{1, protocol.MsgInval, 0x1000}, {2, protocol.MsgFetchReq, 0x2000}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sent %+v, want %+v", got, want)
	}
	if len(cc.slots) != 2 {
		t.Errorf("%d free slots after both sends, want 2", len(cc.slots))
	}
}

// TestDeferredActionSlotsKeepTheirContext pins the deferred-action
// release: a slot handed to at stays taken until its action has run, so
// two actions due in the same later cycle each see their own op.
func TestDeferredActionSlotsKeepTheirContext(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	var seen []uint64
	r.eng.At(0, func() {
		for _, line := range []uint64{0x1000, 0x2000} {
			cc.at(10, cc.opSlot(&homeOp{line: line}), func(cc *Controller, s *slot) {
				seen = append(seen, s.op.line)
			})
		}
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0x1000 || seen[1] != 0x2000 {
		t.Fatalf("actions saw lines %#x, want [0x1000 0x2000]", seen)
	}
	if len(cc.slots) != 2 {
		t.Errorf("%d free slots after both actions ran, want 2", len(cc.slots))
	}
}

// ownerOnce answers the first processor read of line as its dirty owner
// (a long cache-to-cache transfer follows) and holds nothing afterwards.
type ownerOnce struct {
	line uint64
	used bool
}

func (o *ownerOnce) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.Line == o.line && txn.Kind == smpbus.Read && !o.used {
		o.used = true
		return smpbus.SnoopOwned
	}
	return smpbus.SnoopNone
}

// TestControllerFetchRetryKeepsContext pins the bus-transaction slot
// release: a controller fetch bounced RetryNeeded by a live same-line
// transfer keeps its slot through the back-off and re-issues with its
// context intact. A second home fetch starts during the back-off; had the
// bounce released the first fetch's slot, the second would have taken it
// over and the first read would never be answered.
func TestControllerFetchRetryKeepsContext(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.CacheToCache = 3000 })
	line1 := r.space.AllocOnNode(4096, 0)
	line2 := line1 + uint64(r.cfg.LineSize)
	localSrc := r.buses[0].AttachSnooper(silentSnooper{})
	r.buses[0].AttachSnooper(&ownerOnce{line: line1})
	src1 := r.buses[1].AttachSnooper(silentSnooper{})
	src2 := r.buses[1].AttachSnooper(silentSnooper{})

	outcomes := map[uint64]*smpbus.Outcome{}
	read := func(bus *smpbus.Bus, src int, line uint64, homeLocal bool) {
		bus.Issue(&smpbus.Txn{Kind: smpbus.Read, Line: line, Src: src, HomeLocal: homeLocal,
			Done: func(o smpbus.Outcome) {
				if o.Status == smpbus.OK {
					c := o
					outcomes[line] = &c
				}
			}})
	}
	// A local read of line1 at the home keeps a live cache-to-cache
	// transfer on bus 0 for CacheToCache cycles; node 1's read of line1
	// makes the home fetch it meanwhile, and that fetch bounces.
	var local bool
	r.eng.At(0, func() {
		r.buses[0].Issue(&smpbus.Txn{Kind: smpbus.Read, Line: line1, Src: localSrc, HomeLocal: true,
			Done: func(o smpbus.Outcome) { local = o.Status == smpbus.OK }})
		read(r.buses[1], src1, line1, false)
	})
	var bouncedBefore uint64
	r.eng.At(500, func() {
		bouncedBefore = r.buses[0].Retries()
		read(r.buses[1], src2, line2, false)
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if bouncedBefore == 0 {
		t.Fatal("the home fetch of line1 had not bounced when the second read started")
	}
	if !local {
		t.Error("the local read of line1 did not complete")
	}
	for _, line := range []uint64{line1, line2} {
		if o := outcomes[line]; o == nil || !o.WithData {
			t.Errorf("node 1's read of %#x was not answered with data: %+v", line, o)
		}
		e := r.ccs[0].dir.Lookup(line)
		if e.State != directory.SharedRemote || !e.Sharers.Has(1) {
			t.Errorf("home directory for %#x = %+v, want SharedRemote{1}", line, e)
		}
	}
	if r.ccs[0].PendingOps() != 0 || r.ccs[1].PendingOps() != 0 {
		t.Error("transient state left behind")
	}
}
