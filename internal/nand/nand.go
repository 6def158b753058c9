// Package nand models raw NAND flash as seen by the BlueDBM flash
// controller: cards of buses, buses of chips, chips of erase blocks,
// blocks of pages. It enforces real NAND semantics — program-once
// pages, in-order programming inside a block, erase-before-reuse,
// wear-out, bad blocks — and injects bit errors on reads so that the
// controller's ECC path is genuinely exercised.
//
// Pages are stored once, as immutable data: a program keeps the
// caller's PageSize bytes, and every read hands out that same slice,
// read-only. The OOB (ECC check) bytes are charged on the bus but not
// stored. Read errors are not applied to the bytes either: a read
// yields the list of flipped bit positions over the whole stored image
// (data then OOB), and the controller's ECC decodes that pattern alone
// (ecc.PageCodec.Correct). Hamming(72,64) is linear, so this gives
// exactly what decoding the corrupted image would: the stored data for
// a clean or corrected read, a private copy only for a miscorrection.
//
// Timing is modelled on the paper's custom flash board: ~50 µs cell
// reads, 8 buses per card at 150 MB/s each for an aggregate 1.2 GB/s
// per card (paper §5.1, §6.5).
package nand

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Operation errors. The controller maps these onto its command status.
var (
	ErrBadBlock      = errors.New("nand: bad block")
	ErrNotErased     = errors.New("nand: programming a page that is not erased")
	ErrOutOfOrder    = errors.New("nand: pages in a block must be programmed in order")
	ErrReadFree      = errors.New("nand: reading an unwritten page")
	ErrBadAddress    = errors.New("nand: address out of range")
	ErrWrongDataSize = errors.New("nand: page data has wrong size")
	// ErrDead reports an operation against a failed card (Fail). It is
	// the whole-card fault domain: every layer above classifies it as a
	// storage fault and fails over to a replica where one exists.
	ErrDead = errors.New("nand: card failed")
)

// Geometry describes one flash card.
type Geometry struct {
	Buses         int // independent channels per card
	ChipsPerBus   int
	BlocksPerChip int
	PagesPerBlock int
	PageSize      int // logical data bytes per page
	OOBSize       int // out-of-band (ECC) bytes per page: charged on the bus, not stored
}

// Validate reports whether all geometry fields are positive.
func (g Geometry) Validate() error {
	if g.Buses <= 0 || g.ChipsPerBus <= 0 || g.BlocksPerChip <= 0 ||
		g.PagesPerBlock <= 0 || g.PageSize <= 0 || g.OOBSize < 0 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// StoredPageSize returns the raw bytes per page (data + OOB): what a
// read or program moves over the bus, and the span of the bit
// positions a read's flip list indexes.
func (g Geometry) StoredPageSize() int { return g.PageSize + g.OOBSize }

// PagesPerChip returns pages in one chip.
func (g Geometry) PagesPerChip() int { return g.BlocksPerChip * g.PagesPerBlock }

// TotalPages returns pages in the whole card.
func (g Geometry) TotalPages() int {
	return g.Buses * g.ChipsPerBus * g.PagesPerChip()
}

// TotalBytes returns the card's data capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// Timing holds the card's latency/bandwidth parameters.
type Timing struct {
	ReadPage       sim.Time // cell array -> chip register
	Program        sim.Time // chip register -> cell array
	Erase          sim.Time // whole-block erase
	BusBytesPerSec int64    // per-bus transfer rate
	BusLatency     sim.Time // per-transfer bus handshake latency
}

// DefaultTiming matches the paper's flash board characteristics: the
// ~50 µs cell read (plus command/ECC pipeline overhead) gates the
// sustained per-chip page rate, while the bus itself bursts at
// ONFI-style speed so a single page's transfer is short. With one
// independently-readable LUN per bus this yields ~1.1 GB/s of logical
// bandwidth per 8-bus card — the figure §7.3 reports.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:       60 * sim.Microsecond,
		Program:        350 * sim.Microsecond,
		Erase:          3 * sim.Millisecond,
		BusBytesPerSec: 333_000_000,
		BusLatency:     200 * sim.Nanosecond,
	}
}

// Reliability controls error injection and wear-out.
type Reliability struct {
	// BitErrorRate is the per-bit flip probability on a read of a fresh
	// block. The effective rate grows linearly with the block's erase
	// count: rate = BitErrorRate * (1 + eraseCount/EnduranceCycles).
	BitErrorRate float64
	// EnduranceCycles is the nominal program/erase endurance. After a
	// block passes it, every further erase fails (block goes bad) with
	// probability WearOutProb.
	EnduranceCycles int64
	WearOutProb     float64
	// FactoryBadBlockProb marks blocks bad at manufacture time.
	FactoryBadBlockProb float64
	// ReadDisturb scales the bit-error rate with the number of reads a
	// block has absorbed since its last erase (read-disturb noise):
	// rate *= 1 + ReadDisturb*readsSinceErase. 0 disables it.
	ReadDisturb float64
}

// DefaultReliability returns MLC-flash-like numbers, scaled so that
// tests exercise the ECC path without dominating runtime.
func DefaultReliability() Reliability {
	return Reliability{
		BitErrorRate:        1e-7,
		EnduranceCycles:     3000,
		WearOutProb:         0.05,
		FactoryBadBlockProb: 0.001,
	}
}

// Addr names a page (or block, with Page ignored) on one card.
type Addr struct {
	Bus, Chip, Block, Page int
}

func (a Addr) String() string {
	return fmt.Sprintf("b%d.c%d.blk%d.p%d", a.Bus, a.Chip, a.Block, a.Page)
}

// PageState tracks the lifecycle of one page.
type PageState uint8

// Page lifecycle states.
const (
	PageFree PageState = iota // erased, programmable
	PageWritten
)

// Card is one simulated flash card.
type Card struct {
	eng  *sim.Engine
	name string
	geo  Geometry
	tim  Timing
	rel  Reliability
	rng  *sim.RNG
	// noiseSeed keys the stateless bit-error injector. It is separate
	// from rng (which drives factory bad blocks and wear-out) so that
	// read-path noise never perturbs — and is never perturbed by —
	// lifecycle randomness.
	noiseSeed uint64
	failed    bool // whole-card fault domain; see Fail

	buses []*busState
	chips []*chipState // bus-major order
	data  [][]byte     // stored page data per linear page index; nil = free
	state []PageState
	flips []int // scratch flip list handed to one read callback at a time

	// stats
	Reads         sim.Counter
	Programs      sim.Counter
	Erases        sim.Counter
	InjectedFlips sim.Counter
}

type busState struct {
	pipe *sim.Pipe
}

// chipState is one chip's operation FIFO and per-block state. The
// FIFO is a ring over one backing slice (head index plus length), so a
// chip that never drains still reuses its capacity instead of walking
// the array forward, and done is bound once per chip rather than built
// per operation.
type chipState struct {
	queue      []func(done func())
	head, n    int
	running    bool
	done       func() // runs the next queued op; bound in NewCard
	eraseCount []int64
	bad        []bool
	nextPage   []int   // next programmable page index per block
	readSerial []int64 // reads since last erase, per block (injector state)
}

// NewCard builds a card. seed drives error injection; identical seeds
// reproduce identical fault patterns.
func NewCard(eng *sim.Engine, name string, geo Geometry, tim Timing, rel Reliability, seed uint64) (*Card, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	c := &Card{
		eng:       eng,
		name:      name,
		geo:       geo,
		tim:       tim,
		rel:       rel,
		rng:       sim.NewRNG(seed),
		noiseSeed: mix64(seed ^ 0xb10eddb4bade5eed),
		data:      make([][]byte, geo.TotalPages()),
		state:     make([]PageState, geo.TotalPages()),
	}
	for b := 0; b < geo.Buses; b++ {
		c.buses = append(c.buses, &busState{
			pipe: sim.NewPipe(eng, fmt.Sprintf("%s/bus%d", name, b), tim.BusBytesPerSec, tim.BusLatency),
		})
		for ch := 0; ch < geo.ChipsPerBus; ch++ {
			cs := &chipState{
				eraseCount: make([]int64, geo.BlocksPerChip),
				bad:        make([]bool, geo.BlocksPerChip),
				nextPage:   make([]int, geo.BlocksPerChip),
				readSerial: make([]int64, geo.BlocksPerChip),
			}
			cs.done = func() { c.runNext(cs) }
			for blk := 0; blk < geo.BlocksPerChip; blk++ {
				if c.rng.Float64() < rel.FactoryBadBlockProb {
					cs.bad[blk] = true
				}
			}
			c.chips = append(c.chips, cs)
		}
	}
	return c, nil
}

// Geometry returns the card's geometry.
func (c *Card) Geometry() Geometry { return c.geo }

// Timing returns the card's timing parameters.
func (c *Card) Timing() Timing { return c.tim }

// Name returns the card's diagnostic name.
func (c *Card) Name() string { return c.name }

// BusUtilization returns the utilization of bus b.
func (c *Card) BusUtilization(b int) float64 { return c.buses[b].pipe.Utilization() }

// BytesTransferred returns total bytes moved over all buses.
func (c *Card) BytesTransferred() int64 {
	var n int64
	for _, b := range c.buses {
		n += b.pipe.Transferred()
	}
	return n
}

func (c *Card) checkAddr(a Addr, needPage bool) error {
	if a.Bus < 0 || a.Bus >= c.geo.Buses ||
		a.Chip < 0 || a.Chip >= c.geo.ChipsPerBus ||
		a.Block < 0 || a.Block >= c.geo.BlocksPerChip {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if needPage && (a.Page < 0 || a.Page >= c.geo.PagesPerBlock) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	return nil
}

func (c *Card) chipAt(a Addr) *chipState {
	return c.chips[a.Bus*c.geo.ChipsPerBus+a.Chip]
}

// PageIndex converts an address to the card-linear page index.
func (c *Card) PageIndex(a Addr) int {
	return ((a.Bus*c.geo.ChipsPerBus+a.Chip)*c.geo.BlocksPerChip+a.Block)*c.geo.PagesPerBlock + a.Page
}

// AddrOf converts a card-linear page index back to an address.
func (c *Card) AddrOf(idx int) Addr {
	p := idx % c.geo.PagesPerBlock
	idx /= c.geo.PagesPerBlock
	blk := idx % c.geo.BlocksPerChip
	idx /= c.geo.BlocksPerChip
	ch := idx % c.geo.ChipsPerBus
	bus := idx / c.geo.ChipsPerBus
	return Addr{Bus: bus, Chip: ch, Block: blk, Page: p}
}

// enqueue adds an operation to a chip's FIFO queue and runs it when the
// chip is free. The op must call done() when the chip can accept the
// next operation (which may be before the op's data finishes moving:
// NAND cache registers let a bus transfer overlap the next cell read).
//
//simlint:hotpath
func (c *Card) enqueue(cs *chipState, op func(done func())) {
	if cs.n == len(cs.queue) {
		//simlint:allow escapecheck (inlined ring doubling: the compiler attributes grow's amortized make to this call site)
		cs.grow()
	}
	cs.queue[(cs.head+cs.n)%len(cs.queue)] = op
	cs.n++
	if !cs.running {
		cs.running = true
		c.runNext(cs)
	}
}

// grow doubles the ring, unwrapping it to start at index 0.
func (cs *chipState) grow() {
	//simlint:allow hotcall (ring doubling: amortized, the ring keeps its capacity once the chip's queue depth is reached)
	q := make([]func(done func()), max(4, 2*len(cs.queue)))
	for i := 0; i < cs.n; i++ {
		q[i] = cs.queue[(cs.head+i)%len(cs.queue)]
	}
	cs.queue, cs.head = q, 0
}

//simlint:hotpath
func (c *Card) runNext(cs *chipState) {
	if cs.n == 0 {
		cs.running = false
		return
	}
	op := cs.queue[cs.head]
	cs.queue[cs.head] = nil
	cs.head = (cs.head + 1) % len(cs.queue)
	cs.n--
	op(cs.done)
}

// ReadPage reads a page. Timing: the cell read occupies the chip, then
// the whole stored image (data + OOB) crosses the shared bus. The
// callback receives the page's stored data and the bit errors injected
// into this read, or an error.
//
// Ownership: page is the card's stored slice, shared with the card and
// with every other read of it, so it is read-only for the callback and
// everything it hands page to; it stays valid after an erase. flips
// lists the flipped bit positions over the stored image of
// StoredPageSize()*8 bits — data bits first, then OOB — in injection
// order, possibly repeated (a position listed twice cancels). flips is
// the card's scratch: valid only during the callback, which may reorder
// it but must not keep it.
func (c *Card) ReadPage(a Addr, cb func(page []byte, flips []int, err error)) {
	if err := c.checkAddr(a, true); err != nil {
		cb(nil, nil, err)
		return
	}
	cs := c.chipAt(a)
	c.enqueue(cs, func(done func()) {
		if c.failed {
			done()
			cb(nil, nil, fmt.Errorf("%w: %s", ErrDead, c.name))
			return
		}
		if cs.bad[a.Block] {
			done()
			cb(nil, nil, fmt.Errorf("%w: %v", ErrBadBlock, a))
			return
		}
		idx := c.PageIndex(a)
		if c.state[idx] != PageWritten {
			done()
			cb(nil, nil, fmt.Errorf("%w: %v", ErrReadFree, a))
			return
		}
		c.Reads.Inc()
		c.eng.After(c.tim.ReadPage, func() {
			done() // register drained into cache; chip can start next op
			// The noise of this read is fixed at cell-read time; the
			// page data is immutable, so only the slice is captured.
			page := c.data[idx]
			gblk, erases := c.globalBlock(a), cs.eraseCount[a.Block]
			serial := cs.readSerial[a.Block]
			cs.readSerial[a.Block]++
			c.buses[a.Bus].pipe.Transfer(c.geo.StoredPageSize(), func() {
				cb(page, c.corrupt(gblk, erases, serial), nil)
			})
		})
	})
}

// ProgramPage writes one page of data. The data and its OOB check bytes
// first cross the bus, then programming occupies the chip. NAND rules
// are enforced: the page must be erased and must be the next page in
// its block.
//
// Ownership: data must be exactly PageSize bytes, and the card keeps it
// as the page's stored data instead of copying it, so the caller hands
// data over and must neither modify nor reuse it after the call. Reads
// share it read-only (see ReadPage).
func (c *Card) ProgramPage(a Addr, data []byte, cb func(err error)) {
	if err := c.checkAddr(a, true); err != nil {
		cb(err)
		return
	}
	if len(data) != c.geo.PageSize {
		cb(fmt.Errorf("%w: got %d, want %d", ErrWrongDataSize, len(data), c.geo.PageSize))
		return
	}
	// Cap the stored slice at the page so no reader can append into
	// whatever capacity the caller's buffer had past it.
	data = data[:len(data):len(data)]
	cs := c.chipAt(a)
	c.enqueue(cs, func(done func()) {
		if c.failed {
			done()
			cb(fmt.Errorf("%w: %s", ErrDead, c.name))
			return
		}
		if cs.bad[a.Block] {
			done()
			cb(fmt.Errorf("%w: %v", ErrBadBlock, a))
			return
		}
		idx := c.PageIndex(a)
		if c.state[idx] != PageFree {
			done()
			cb(fmt.Errorf("%w: %v", ErrNotErased, a))
			return
		}
		if a.Page != cs.nextPage[a.Block] {
			done()
			cb(fmt.Errorf("%w: %v (next programmable is page %d)", ErrOutOfOrder, a, cs.nextPage[a.Block]))
			return
		}
		c.buses[a.Bus].pipe.Transfer(c.geo.StoredPageSize(), func() {
			c.eng.After(c.tim.Program, func() {
				c.state[idx] = PageWritten
				c.data[idx] = data
				cs.nextPage[a.Block]++
				c.Programs.Inc()
				done()
				cb(nil)
			})
		})
	})
}

// EraseBlock erases a block, freeing all its pages. Wear accumulates;
// past the endurance limit the block may fail and become bad.
func (c *Card) EraseBlock(a Addr, cb func(err error)) {
	if err := c.checkAddr(a, false); err != nil {
		cb(err)
		return
	}
	cs := c.chipAt(a)
	c.enqueue(cs, func(done func()) {
		if c.failed {
			done()
			cb(fmt.Errorf("%w: %s", ErrDead, c.name))
			return
		}
		if cs.bad[a.Block] {
			done()
			cb(fmt.Errorf("%w: %v", ErrBadBlock, a))
			return
		}
		c.eng.After(c.tim.Erase, func() {
			cs.eraseCount[a.Block]++
			c.Erases.Inc()
			if cs.eraseCount[a.Block] > c.rel.EnduranceCycles && c.rng.Float64() < c.rel.WearOutProb {
				cs.bad[a.Block] = true
				done()
				cb(fmt.Errorf("%w: %v (wore out after %d cycles)", ErrBadBlock, a, cs.eraseCount[a.Block]))
				return
			}
			base := c.PageIndex(Addr{Bus: a.Bus, Chip: a.Chip, Block: a.Block})
			for p := 0; p < c.geo.PagesPerBlock; p++ {
				c.state[base+p] = PageFree
				c.data[base+p] = nil
			}
			cs.nextPage[a.Block] = 0
			cs.readSerial[a.Block] = 0
			done()
			cb(nil)
		})
	})
}

// mix64 is the splitmix64 finalizer (the same mixing sim.RNG applies):
// a stateless hash that decorrelates the injector's draw streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// globalBlock returns the card-wide index of an address's erase block.
func (c *Card) globalBlock(a Addr) int {
	return (a.Bus*c.geo.ChipsPerBus+a.Chip)*c.geo.BlocksPerChip + a.Block
}

// corrupt returns the bit flips injected into the serial-th read of a
// block since its last erase, as positions over the stored image's
// StoredPageSize()*8 bits, in c.flips (reset on every call). The flip
// pattern is a pure function of (card seed, block, erase count, read
// serial): each block carries its own error state, so a block's noise
// history depends only on its own wear and read count — never on how
// reads to other blocks, chips or cards interleave with it.
//
//simlint:hotpath
func (c *Card) corrupt(gblk int, eraseCount, serial int64) []int {
	c.flips = c.flips[:0]
	rate := c.rel.BitErrorRate
	if rate <= 0 {
		return c.flips
	}
	if c.rel.EnduranceCycles > 0 {
		rate *= 1 + float64(eraseCount)/float64(c.rel.EnduranceCycles)
	}
	if c.rel.ReadDisturb > 0 {
		rate *= 1 + c.rel.ReadDisturb*float64(serial)
	}
	bits := c.geo.StoredPageSize() * 8
	mean := rate * float64(bits)
	// Per-(block, erase, read) stateless splitmix stream.
	s := c.noiseSeed ^ mix64(uint64(gblk)*0x9e3779b97f4a7c15+1)
	s ^= mix64(uint64(eraseCount)*0xd1342543de82ef95 + 0x2545f4914f6cdd1d)
	s += uint64(serial) * 0x9e3779b97f4a7c15
	// Cheap Poisson-ish sampling: integer part plus Bernoulli remainder.
	s += 0x9e3779b97f4a7c15
	flips := int(mean)
	if float64(mix64(s)>>11)/(1<<53) < mean-float64(flips) {
		flips++
	}
	for i := 0; i < flips; i++ {
		s += 0x9e3779b97f4a7c15
		c.flips = append(c.flips, int(mix64(s)%uint64(bits)))
		c.InjectedFlips.Inc()
	}
	return c.flips
}

// Fail marks the whole card dead: every subsequent operation — and
// every operation still queued behind the failure point — completes
// with ErrDead. In-flight cell/bus activity that already passed its
// fault check finishes normally, the way a yanked card's last DMA
// drains. Fail models the card-level fault domain (a controller brick,
// a pulled board); block-level media failure is MarkBad/wear-out.
func (c *Card) Fail() { c.failed = true }

// Failed reports whether the card is dead.
func (c *Card) Failed() bool { return c.failed }

// Replace swaps in a fresh, blank card of identical geometry: all
// pages free, zero wear, no bad blocks, injector state reset. The
// replacement card keeps the same identity (name, seed, attached
// controller), mirroring a field swap of the flash board. Callers
// should replace only after the dead card's queued operations have
// drained (they complete with ErrDead in virtual time).
func (c *Card) Replace() {
	c.failed = false
	for i := range c.data {
		c.data[i] = nil
		c.state[i] = PageFree
	}
	for _, cs := range c.chips {
		for b := range cs.eraseCount {
			cs.eraseCount[b] = 0
			cs.bad[b] = false
			cs.nextPage[b] = 0
			cs.readSerial[b] = 0
		}
	}
}

// IsBad reports whether a block is marked bad.
func (c *Card) IsBad(a Addr) bool {
	if err := c.checkAddr(a, false); err != nil {
		return true
	}
	return c.chipAt(a).bad[a.Block]
}

// EraseCount returns a block's accumulated erase cycles.
func (c *Card) EraseCount(a Addr) int64 {
	if err := c.checkAddr(a, false); err != nil {
		return 0
	}
	return c.chipAt(a).eraseCount[a.Block]
}

// MarkBad forcibly marks a block bad (used by tests and by the
// controller when ECC reports an uncorrectable page).
func (c *Card) MarkBad(a Addr) {
	if err := c.checkAddr(a, false); err != nil {
		return
	}
	c.chipAt(a).bad[a.Block] = true
}

// State returns a page's lifecycle state without timing effects.
func (c *Card) State(a Addr) PageState {
	if err := c.checkAddr(a, true); err != nil {
		return PageFree
	}
	return c.state[c.PageIndex(a)]
}

// Peek returns the page's stored data (PageSize bytes, read-only, the
// slice reads share) without timing or error injection, or nil for a
// free page. It is a debug/test hook, not part of the modelled hardware
// surface.
func (c *Card) Peek(a Addr) []byte {
	if err := c.checkAddr(a, true); err != nil {
		return nil
	}
	return c.data[c.PageIndex(a)]
}
