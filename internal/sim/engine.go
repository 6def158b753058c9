// Package sim provides a deterministic discrete-event simulation engine
// used to model the BlueDBM hardware substrate: flash chips, buses,
// serial links, switches, and DMA engines.
//
// All simulated time is virtual. Components schedule callbacks on an
// Engine; the Engine executes them in (time, insertion) order, so a run
// with the same inputs and seeds is exactly reproducible.
//
// The engine is allocation-free on its steady-state path: events live
// in a pooled arena and are addressed by generation-counted handles
// (a stale Cancel after slot reuse is a safe no-op), and the pending
// set is a hierarchical timer structure — near-future events in a
// bucketed wheel, far timers in a min-heap that cascades into the
// wheel as time advances. The wheel has 4096 lanes of 256 ns ticks, a
// ~1 ms horizon: the tick is shorter than a 0.48 us fabric hop, so one
// drain orders only the few events that share a tick. Lane occupancy
// is 64 bitmap words plus a one-word summary of the non-empty words,
// so finding the next occupied lane takes a constant number of loads.
// Firing order is exactly (time, insertion sequence), identical to a
// single global priority queue.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration aliases for readable schedule calls.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timer-wheel geometry. Each bucket spans one tick of 2^tickBits ns
// (256 ns, under one fabric hop); the wheel's 4096 buckets cover ~1 ms
// of near future — flash reads, programs, network hops and DMA all
// land here. Events beyond the horizon (3 ms erases, long think
// timers) wait in a far min-heap and cascade into the wheel as the
// clock approaches them. The summary word has one bit per occupancy
// word, which caps wheelWords at 64.
const (
	tickBits   = 8
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// Event is a generation-counted handle to a scheduled callback,
// returned by At/After and accepted by Cancel. The zero Event is
// inert: cancelling it does nothing. Handles stay safe after the
// event fires — the pooled slot's generation moves on, so a stale
// Cancel can never hit an unrelated recycled event.
type Event struct {
	idx int32
	gen uint32
}

// slot states.
const (
	slotFree uint8 = iota
	slotQueued
	slotCancelled // still threaded in a queue; reaped when reached
)

// eventSlot is pooled per-event storage. Slots are reused; gen
// increments on every release so stale handles miss. The pool trades
// in int32 slot indexes rather than pointers; poolleak tracks the
// handle the same way.
//
//simlint:pool get=alloc put=release
type eventSlot struct {
	at    Time
	seq   uint64
	fn    func()
	next  int32 // bucket chain when queued; free-list link when free
	gen   uint32
	state uint8
}

// entry is a by-value heap element: ordering key plus the slot index.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket is one wheel lane: an append-ordered chain of slots.
type bucket struct {
	head, tail int32
}

// EngineStats is a snapshot of the engine's internal counters: how
// the timer structures absorbed the load, and how big the event pool
// grew. WheelEvents+FarEvents+CurEvents ~= total events scheduled
// (cancelled ones included).
type EngineStats struct {
	// Fired is the number of events executed.
	Fired uint64 `json:"fired"`
	// Pending is the number of live events waiting to fire.
	Pending int `json:"pending"`
	// Cancelled counts Cancel calls that hit a live event.
	Cancelled uint64 `json:"cancelled"`
	// WheelEvents counts events scheduled into a wheel bucket (the
	// near-future fast path).
	WheelEvents uint64 `json:"wheel_events"`
	// CurEvents counts events scheduled directly into the current-tick
	// drain heap: zero-delay kicks and any delay that lands inside the
	// 256 ns tick being drained.
	CurEvents uint64 `json:"cur_events"`
	// FarEvents counts events scheduled beyond the wheel horizon into
	// the far heap.
	FarEvents uint64 `json:"far_events"`
	// FarCascades counts far-heap events re-bucketed into the wheel as
	// the clock advanced.
	FarCascades uint64 `json:"far_cascades"`
	// PoolSlots is the allocated capacity of the event pool (its
	// high-water mark of concurrently pending events, roughly).
	PoolSlots int `json:"pool_slots"`
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Event pool. Slot 0 is reserved so the zero Event handle is
	// always invalid.
	slots []eventSlot
	free  int32 // free-list head, -1 when empty

	// cur holds events with tick < base: the tick being drained plus
	// same-instant arrivals. Its minimum is the global minimum.
	cur []entry

	// Near wheel: buckets[t&wheelMask] chains events whose tick t is
	// in [base, base+wheelSlots). occupied mirrors non-empty buckets;
	// bit i of summary is set while occupied[i] != 0.
	buckets  [wheelSlots]bucket
	occupied [wheelWords]uint64
	summary  uint64
	wheelCnt int

	// Far heap: events with tick ≥ horizon at scheduling time.
	far []entry

	pending int // live (non-cancelled) scheduled events
	base    int64
	stats   EngineStats
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{free: -1}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: -1, tail: -1}
	}
	// Reserve slot 0 with a non-zero generation: the zero Event handle
	// (idx 0, gen 0) must never match a live slot.
	e.slots = append(e.slots, eventSlot{gen: 1, state: slotFree, next: -1})
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.stats.Fired }

// Pending returns the number of live events waiting to fire.
func (e *Engine) Pending() int { return e.pending }

// Stats returns a snapshot of the engine's internal counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.Pending = e.pending
	st.PoolSlots = len(e.slots)
	return st
}

// alloc takes a slot from the free list (or grows the pool) and
// stamps it with the event's key.
//
//simlint:hotpath
func (e *Engine) alloc(at Time, fn func()) int32 {
	var idx int32
	if e.free >= 0 {
		idx = e.free
		e.free = e.slots[idx].next
	} else {
		idx = int32(len(e.slots))
		e.slots = append(e.slots, eventSlot{})
	}
	s := &e.slots[idx]
	s.at = at
	s.seq = e.seq
	s.fn = fn
	s.next = -1
	s.state = slotQueued
	e.seq++
	return idx
}

// release recycles a slot. The generation bump invalidates every
// outstanding handle to it.
//
//simlint:hotpath
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	s.state = slotFree
	s.next = e.free
	e.free = idx
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a modelling bug.
//
//simlint:hotpath
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc(t, fn)
	e.pending++
	tick := int64(t) >> tickBits
	switch {
	case tick < e.base:
		// Inside the tick being drained (or base already advanced past
		// it): goes straight to the cur heap. Correct by construction —
		// everything in cur is earlier than every bucketed/far event.
		e.curPush(entry{at: t, seq: e.slots[idx].seq, idx: idx})
		e.stats.CurEvents++
	case tick-e.base < wheelSlots:
		e.bucketPush(tick, idx)
		e.stats.WheelEvents++
	default:
		e.farPush(entry{at: t, seq: e.slots[idx].seq, idx: idx})
		e.stats.FarEvents++
	}
	return Event{idx: idx, gen: e.slots[idx].gen}
}

// After schedules fn to run d after the current time.
//
//simlint:hotpath
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, stale (recycled slot) or zero-value handle is a
// safe no-op: the handle's generation no longer matches, so it cannot
// touch whatever event now occupies the slot. The slot itself is
// reaped when the firing loop reaches it.
//
//simlint:hotpath
func (e *Engine) Cancel(ev Event) {
	if ev.idx <= 0 || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.state != slotQueued {
		return
	}
	s.state = slotCancelled
	s.fn = nil
	e.pending--
	e.stats.Cancelled++
}

// --- cur heap (current-tick drain) ----------------------------------

//simlint:hotpath
func (e *Engine) curPush(x entry) {
	e.cur = append(e.cur, x)
	i := len(e.cur) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e.cur[i], e.cur[p]) {
			break
		}
		e.cur[i], e.cur[p] = e.cur[p], e.cur[i]
		i = p
	}
}

//simlint:hotpath
func (e *Engine) curPop() entry {
	h := e.cur
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.cur = h[:n]
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entryLess(h[l], h[m]) {
			m = l
		}
		if r < n && entryLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// --- far heap --------------------------------------------------------

//simlint:hotpath
func (e *Engine) farPush(x entry) {
	e.far = append(e.far, x)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e.far[i], e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

//simlint:hotpath
func (e *Engine) farPop() entry {
	h := e.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.far = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entryLess(h[l], h[m]) {
			m = l
		}
		if r < n && entryLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// --- wheel -----------------------------------------------------------

//simlint:hotpath
func (e *Engine) bucketPush(tick int64, idx int32) {
	slot := int(tick) & wheelMask
	b := &e.buckets[slot]
	if b.head < 0 {
		b.head = idx
		e.occupied[slot>>6] |= 1 << uint(slot&63)
		e.summary |= 1 << uint(slot>>6)
	} else {
		e.slots[b.tail].next = idx
	}
	b.tail = idx
	e.wheelCnt++
}

// nextBucketDist returns the circular distance from base to the first
// occupied bucket, or -1 if the wheel is empty. Past the start word,
// the summary rotated right by sw+1 has bit k set when word
// (sw+1+k)&63 is occupied; k = 63 is the start word again, whose
// remaining bits all lie below sb, so one formula covers the wrap.
//
//simlint:hotpath
func (e *Engine) nextBucketDist() int {
	start := int(e.base) & wheelMask
	sw, sb := start>>6, uint(start&63)
	if w := e.occupied[sw] >> sb; w != 0 {
		return bits.TrailingZeros64(w)
	}
	r := bits.RotateLeft64(e.summary, -(sw + 1))
	if r == 0 {
		return -1
	}
	k := bits.TrailingZeros64(r)
	w := e.occupied[(sw+1+k)&(wheelWords-1)]
	return 64 - int(sb) + 64*k + bits.TrailingZeros64(w)
}

// drainBucket moves every event of the bucket at tick into the cur
// heap (reaping cancelled slots) and clears the bucket.
//
//simlint:hotpath
func (e *Engine) drainBucket(tick int64) {
	slot := int(tick) & wheelMask
	b := &e.buckets[slot]
	idx := b.head
	for idx >= 0 {
		s := &e.slots[idx]
		next := s.next
		e.wheelCnt--
		if s.state == slotCancelled {
			e.release(idx)
		} else {
			e.curPush(entry{at: s.at, seq: s.seq, idx: idx})
		}
		idx = next
	}
	b.head, b.tail = -1, -1
	e.occupied[slot>>6] &^= 1 << uint(slot&63)
	if e.occupied[slot>>6] == 0 {
		e.summary &^= 1 << uint(slot>>6)
	}
}

// cascade moves far-heap events whose tick is now inside the wheel
// horizon into their buckets.
//
//simlint:hotpath
func (e *Engine) cascade() {
	horizon := e.base + wheelSlots
	for len(e.far) > 0 && int64(e.far[0].at)>>tickBits < horizon {
		x := e.farPop()
		if e.slots[x.idx].state == slotCancelled {
			e.release(x.idx)
			continue
		}
		e.bucketPush(int64(x.at)>>tickBits, x.idx)
		e.stats.FarCascades++
	}
}

// ensureNext makes the earliest live event the cur-heap minimum and
// reports whether one exists. It advances base (draining buckets and
// cascading far timers) but never moves the clock or fires anything.
//
//simlint:hotpath
func (e *Engine) ensureNext() bool {
	for {
		// Reap cancelled events off the cur top.
		for len(e.cur) > 0 {
			if e.slots[e.cur[0].idx].state != slotCancelled {
				return true
			}
			e.release(e.curPop().idx)
		}
		if e.wheelCnt == 0 {
			if len(e.far) == 0 {
				return false
			}
			// Jump the wheel to the far minimum and refill.
			e.base = int64(e.far[0].at) >> tickBits
			e.cascade()
			continue
		}
		d := e.nextBucketDist()
		tick := e.base + int64(d)
		// A far timer may have come inside the horizon as base moved;
		// anything earlier than the found bucket must cascade first.
		if len(e.far) > 0 && int64(e.far[0].at)>>tickBits <= tick {
			e.cascade()
			d = e.nextBucketDist()
			tick = e.base + int64(d)
		}
		e.drainBucket(tick)
		// Later arrivals for this tick must go straight to cur: the
		// bucket has been drained.
		e.base = tick + 1
	}
}

// Step fires the next event, if any, and reports whether one fired.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if !e.ensureNext() {
		return false
	}
	x := e.curPop()
	s := &e.slots[x.idx]
	e.now = x.at
	fn := s.fn
	e.release(x.idx)
	e.pending--
	e.stats.Fired++
	fn()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t (even if no event lands exactly there).
func (e *Engine) RunUntil(t Time) {
	for e.ensureNext() && e.cur[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunWhile fires events until cond returns false or no events remain.
// It reports whether cond is still true (i.e. the run was exhausted
// before cond was satisfied).
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if !e.Step() {
			return true
		}
	}
	return false
}

// Timer is a reusable one-shot timer: one callback allocated at
// construction, rearmed as often as the caller likes. Hot paths that
// used to schedule a fresh closure per occurrence (dispatch kicks,
// retry backoffs, housekeeping ticks) construct one Timer and rearm
// it instead — zero allocations per arm.
type Timer struct {
	eng *Engine
	fn  func()
	ev  Event
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Arm schedules the timer d after now, replacing any pending arming
// (the previous schedule is cancelled). Rearming from inside fn is
// the usual self-pacing idiom.
//
//simlint:hotpath
func (t *Timer) Arm(d Time) {
	t.eng.Cancel(t.ev)
	t.ev = t.eng.After(d, t.fn)
}

// ArmAt schedules the timer at absolute time at, replacing any
// pending arming.
//
//simlint:hotpath
func (t *Timer) ArmAt(at Time) {
	t.eng.Cancel(t.ev)
	t.ev = t.eng.At(at, t.fn)
}

// Stop cancels a pending arming; a stopped or fired timer may be
// armed again.
//
//simlint:hotpath
func (t *Timer) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}
