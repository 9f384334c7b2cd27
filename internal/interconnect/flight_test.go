package interconnect

import (
	"testing"

	"ccnuma/internal/sim"
)

// recyclable is a payload whose receiver reuses it after delivery, as the
// coherence controller reuses message bodies.
type recyclable struct {
	id, data int
}

func (r *recyclable) Clone() interface{} {
	c := *r
	return &c
}

// TestDuplicateFaultClonesRecycledPayload pins the Duplicate rule on an
// unreliable link: the receiver recycles each delivery as soon as it has
// read it, so both deliveries must still see the fields that were sent. A
// duplicate that shared the original payload (a release before the last
// delivery) would hand the second delivery the recycled fields.
func TestDuplicateFaultClonesRecycledPayload(t *testing.T) {
	eng, net, _ := setup(t)
	faulted := false
	net.Fault = func(int, int, interface{}) Decision {
		if faulted {
			return Decision{}
		}
		faulted = true
		return Decision{Duplicate: true}
	}
	type seen struct{ id, data int }
	var got []seen
	net.Attach(1, func(_ int, p interface{}) {
		r := p.(*recyclable)
		got = append(got, seen{r.id, r.data})
		// The receiver is done with the payload: reuse it.
		r.id, r.data = -1, -1
	})
	eng.At(0, func() { net.Send(0, 1, 1, &recyclable{id: 7, data: 42}) })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want the original and its duplicate", len(got))
	}
	for i, s := range got {
		if s != (seen{7, 42}) {
			t.Errorf("delivery %d saw %+v, want the sent fields {7 42}", i, s)
		}
	}
}

// TestFlightReleasedAfterSink pins the flight release point: a flight
// returns to its free list only once its sink has returned. Message A's
// input-port grant and its sink are a serialization time apart; message B
// starts transmitting inside that window. Had A's flight been released at
// the grant, B would have taken it and A's sink would deliver B.
func TestFlightReleasedAfterSink(t *testing.T) {
	eng, net, cfg := setup(t)
	const flits = 4
	ser := sim.Time(flits) * cfg.NetFlitTime
	headA := cfg.NetLatency // A leaves at 0; its head reaches node 1's input port
	if ser < 2 {
		t.Fatalf("serialization time %d leaves no window", ser)
	}
	type delivery struct {
		node, src int
		payload   interface{}
		at        sim.Time
	}
	var got []delivery
	for _, node := range []int{0, 1} {
		node := node
		net.Attach(node, func(src int, p interface{}) {
			got = append(got, delivery{node, src, p, eng.Now()})
		})
	}
	eng.At(0, func() { net.Send(0, 1, flits, "A") })
	eng.At(headA+1, func() { net.Send(1, 0, flits, "B") })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []delivery{
		{node: 1, src: 0, payload: "A", at: headA + ser},
		{node: 0, src: 1, payload: "B", at: headA + 1 + cfg.NetLatency + ser},
	}
	if len(got) != len(want) {
		t.Fatalf("deliveries %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
