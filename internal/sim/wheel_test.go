package sim

import (
	"slices"
	"testing"
)

// TestEngineMatchesReferenceModel drives the wheel/pool engine and a
// naive reference scheduler (stable-sorted event list) with the same
// randomized script — delays spanning the current tick, the wheel
// range, and the far heap, plus nested scheduling and cancellations —
// and requires the exact same firing order. This is the "identical
// (time, seq) order" contract of the timer wheel. Each seed opens
// with a dense burst, the fabric pattern: hundreds of events pending
// inside one 4 us window whose callbacks rearm at 0-1 us delays, so
// many ticks drain at once and same-tick arrivals go straight to cur.
func TestEngineMatchesReferenceModel(t *testing.T) {
	type refEvent struct {
		at        Time
		seq       int
		id        int
		cancelled bool
	}

	for seed := uint64(1); seed <= 8; seed++ {
		e := NewEngine()
		rng := NewRNG(seed)

		var refQ []*refEvent
		refSeq := 0
		refPush := func(at Time, id int) *refEvent {
			ev := &refEvent{at: at, seq: refSeq, id: id}
			refSeq++
			refQ = append(refQ, ev)
			return ev
		}
		refPop := func() *refEvent {
			best := -1
			for i, ev := range refQ {
				if ev.cancelled {
					continue
				}
				if best < 0 || ev.at < refQ[best].at ||
					(ev.at == refQ[best].at && ev.seq < refQ[best].seq) {
					best = i
				}
			}
			if best < 0 {
				return nil
			}
			ev := refQ[best]
			refQ = append(refQ[:best], refQ[best+1:]...)
			return ev
		}

		// Delay mix: same instant, same tick, sub-microsecond, inside
		// the wheel span, beyond the horizon (multiple wheel
		// revolutions out).
		randDelay := func() Time {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return Time(rng.Intn(1 << tickBits))
			case 2:
				return Time(rng.Intn(int(Microsecond) + 1))
			case 3:
				return Time(rng.Intn(wheelSlots << tickBits))
			default:
				return Time(rng.Intn(16 * wheelSlots << tickBits))
			}
		}

		var engOrder, refOrder []int
		nextID := 0
		var engEvents []Event
		var refEvents []*refEvent

		var spawn func(depth int)
		var schedule func(d Time, depth int)
		dense := 0 // burst callbacks left that rearm sub-microsecond
		schedule = func(d Time, depth int) {
			id := nextID
			nextID++
			ev := e.After(d, func() {
				engOrder = append(engOrder, id)
				if dense > 0 {
					dense--
					schedule(Time(rng.Intn(int(Microsecond)+1)), 3)
				}
				if depth < 3 && rng.Intn(2) == 0 {
					spawn(depth + 1)
				}
			})
			engEvents = append(engEvents, ev)
			refEvents = append(refEvents, refPush(e.Now()+d, id))
		}
		// cancelSome occasionally cancels a random prior event in both
		// models. The engine ignores cancels of already-fired events
		// (stale generation); the pending count says whether this one
		// actually hit, and the reference mirrors that.
		cancelSome := func(oneIn int) {
			if len(engEvents) > 4 && rng.Intn(oneIn) == 0 {
				k := rng.Intn(len(engEvents))
				before := e.Pending()
				e.Cancel(engEvents[k])
				if e.Pending() == before-1 {
					refEvents[k].cancelled = true
				}
			}
		}
		spawn = func(depth int) {
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				schedule(randDelay(), depth)
			}
			cancelSome(4)
		}

		// Dense burst: 300 events inside the first 4 us, 0-1 us rearms.
		dense = 1500
		for i := 0; i < 300; i++ {
			schedule(Time(rng.Intn(4*int(Microsecond))), 3)
			cancelSome(8)
		}
		if e.Pending() < 250 {
			t.Fatalf("seed %d: dense burst left %d events pending, want hundreds", seed, e.Pending())
		}

		// The reference model replays the engine's callbacks: drive
		// both from the engine's own firing loop, checking the
		// reference pops the same ids at the same times.
		spawn(0)
		for {
			before := len(engOrder)
			if !e.Step() {
				break
			}
			if len(engOrder) != before+1 {
				t.Fatalf("seed %d: Step fired %d events, want 1", seed, len(engOrder)-before)
			}
			ref := refPop()
			if ref == nil {
				t.Fatalf("seed %d: engine fired id %d but reference is empty", seed, engOrder[len(engOrder)-1])
			}
			got := engOrder[len(engOrder)-1]
			if ref.id != got || ref.at != e.Now() {
				t.Fatalf("seed %d: engine fired id %d at %v, reference expects id %d at %v",
					seed, got, e.Now(), ref.id, ref.at)
			}
			refOrder = append(refOrder, ref.id)
		}
		if ref := refPop(); ref != nil {
			t.Fatalf("seed %d: engine exhausted but reference still holds id %d", seed, ref.id)
		}
	}
}

// TestEngineCancelStaleHandle pins the Event lifecycle contract that
// makes pooling safe: a handle kept after its event fired (or was
// cancelled) must never cancel the unrelated event that recycles the
// slot. Before generation counters this was the pooling hazard — the
// stale *Event pointed at live storage.
func TestEngineCancelStaleHandle(t *testing.T) {
	e := NewEngine()
	firedA := false
	stale := e.After(10, func() { firedA = true })
	if !e.Step() || !firedA {
		t.Fatal("event A did not fire")
	}

	// Slot is recycled by the next schedule (LIFO free list).
	firedB := false
	fresh := e.After(10, func() { firedB = true })
	if fresh.idx != stale.idx {
		t.Fatalf("test premise broken: fresh event got slot %d, stale was %d", fresh.idx, stale.idx)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot kept its generation; stale handles would alias")
	}

	// The stale handle must be inert.
	e.Cancel(stale)
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel killed a live event: pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !firedB {
		t.Fatal("event B was cancelled through a stale handle")
	}

	// Cancelling a cancelled event, a fired event's handle again, and
	// the zero handle are all no-ops.
	e.Cancel(stale)
	e.Cancel(fresh)
	e.Cancel(Event{})
	e.Cancel(Event{idx: 1 << 20, gen: 3})
}

// TestEngineCancelledSlotReuse verifies cancelled events are reaped
// and their slots recycled rather than leaking in the wheel.
func TestEngineCancelledSlotReuse(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		ev := e.After(Time(i%7)*Microsecond, func() { t.Fatal("cancelled event fired") })
		e.Cancel(ev)
		e.After(Time(i%7)*Microsecond, func() {}) // live traffic advances the clock
		e.Run()
	}
	if got := len(e.slots); got > 16 {
		t.Fatalf("pool grew to %d slots under cancel/reuse churn; slots are leaking", got)
	}
	if e.Stats().Cancelled != 1000 {
		t.Fatalf("cancelled = %d, want 1000", e.Stats().Cancelled)
	}
}

// TestTimerReuse exercises the rearm idiom: one Timer, many firings,
// including rearming from inside the callback and Stop.
func TestTimerReuse(t *testing.T) {
	e := NewEngine()
	var fires []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			tm.Arm(5 * Microsecond)
		}
	})
	tm.Arm(Microsecond)
	e.Run()
	want := []Time{Microsecond, 6 * Microsecond, 11 * Microsecond}
	if len(fires) != len(want) {
		t.Fatalf("timer fired %d times, want %d", len(fires), len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}

	// Rearming replaces the pending schedule (no double fire), Stop
	// cancels, and a stopped timer can be armed again.
	count := 0
	tm2 := e.NewTimer(func() { count++ })
	tm2.Arm(10)
	tm2.Arm(20) // replaces, does not stack
	e.Run()
	if count != 1 {
		t.Fatalf("rearm stacked: fired %d times, want 1", count)
	}
	tm2.Arm(10)
	tm2.Stop()
	e.Run()
	if count != 1 {
		t.Fatalf("stopped timer fired: count = %d", count)
	}
	tm2.Arm(10)
	e.Run()
	if count != 2 {
		t.Fatalf("restarted timer did not fire: count = %d", count)
	}
}

// TestEngineFarWheelBoundary schedules events exactly at, just below
// and just above the wheel horizon and checks order and cascade
// accounting.
func TestEngineFarWheelBoundary(t *testing.T) {
	e := NewEngine()
	horizon := Time(wheelSlots << tickBits)
	var order []int
	e.After(horizon-1, func() { order = append(order, 1) })
	e.After(horizon, func() { order = append(order, 2) })   // far
	e.After(horizon+1, func() { order = append(order, 3) }) // far
	e.After(1, func() { order = append(order, 0) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("boundary events out of order: %v", order)
		}
	}
	st := e.Stats()
	if st.FarEvents != 2 {
		t.Fatalf("far events = %d, want 2", st.FarEvents)
	}
	if st.FarCascades != 2 {
		t.Fatalf("far cascades = %d, want 2", st.FarCascades)
	}
}

// TestEngineNextBucketEveryWord runs a chain of single events, each
// scheduled from its predecessor's callback, so that when one is due
// the wheel holds only it and nextBucketDist must find it from the
// lane after its predecessor's. For start lanes at several bit
// offsets sb within several occupancy words sw, the chain places the
// next event k words past the start word for every k, including
// k = 63: the start word again, at a bit below sb, reached only by
// wrapping around the whole wheel. Each event is preceded by one that
// positions the start lane. Fire times must match the sorted plan.
func TestEngineNextBucketEveryWord(t *testing.T) {
	var plan []Time
	// at returns a time inside tick, off its lane's first nanosecond.
	at := func(tick int64) Time { return Time(tick<<tickBits + tick%(1<<tickBits)) }
	tick := int64(3*wheelSlots) - 1 // a few revolutions in
	for _, sb := range []int64{0, 1, 17, 62, 63} {
		for _, sw := range []int64{0, 1, 30, 62, 63} {
			for k := int64(0); k < wheelWords; k++ {
				j := (7*k + sb) % 64
				if k == wheelWords-1 {
					if sb == 0 {
						continue // no bit below sb to wrap into
					}
					j = 0
					if sw%2 == 1 {
						j = sb - 1 // the lane just below the start
					}
				}
				// Position: an event whose drain leaves base at a lane
				// with offset sw*64+sb, at least one tick ahead.
				lane := sw*64 + sb
				start := tick + 2 + (lane-(tick+2))&wheelMask
				plan = append(plan, at(start-1))
				tick = start + 64 - sb + 64*k + j
				plan = append(plan, at(tick))
			}
		}
	}
	if !slices.IsSorted(plan) {
		t.Fatal("test premise broken: plan is not increasing")
	}

	e := NewEngine()
	var fired []Time
	next := 0
	var fn func()
	fn = func() {
		fired = append(fired, e.Now())
		if next < len(plan) {
			if e.Pending() != 0 {
				t.Fatalf("event %d: %d others pending, want a single event", next, e.Pending())
			}
			if d := int64(plan[next])>>tickBits - e.base; d < 0 || d >= wheelSlots {
				t.Fatalf("event %d: %d ticks past base, want inside the wheel", next, d)
			}
			e.At(plan[next], fn)
			next++
		}
	}
	e.At(plan[0], fn)
	next = 1
	e.Run()
	for i := range min(len(fired), len(plan)) {
		if fired[i] != plan[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], plan[i])
		}
	}
	if len(fired) != len(plan) {
		t.Fatalf("fired %d events, want %d", len(fired), len(plan))
	}
	if st := e.Stats(); st.CurEvents != 0 {
		t.Fatalf("%d events went to cur; every event should ride a wheel lane", st.CurEvents)
	}
	// A stale summary bit would not misorder events, only send
	// nextBucketDist to empty words; check the drained wheel is clear.
	if e.summary != 0 || e.occupied != [wheelWords]uint64{} {
		t.Fatalf("drained wheel still marks lanes: summary %#x", e.summary)
	}
}
