// Package flashctl models the BlueDBM flash controller (paper §3.1.1):
// a low-level, thin, bit-error-corrected hardware interface to raw NAND
// chips, buses, blocks and pages.
//
// The interface contract follows the paper exactly:
//
//   - the user issues a tagged command (read / write / erase);
//   - for writes, the controller scheduler asks the user for the data
//     when it is ready to accept it;
//   - read data returns in bursts that may be interleaved and out of
//     order with respect to other in-flight reads, so users needing
//     FIFO semantics must keep completion buffers (flashserver does);
//   - multiple commands must be kept in flight to saturate the device,
//     since a flash operation costs 50 µs or more.
//
// Each controller instance manages one flash card, mirroring the
// Artix-7 chip on each custom flash board. Data moves between the card
// and its user over a serial chip-to-chip channel modelled on the
// paper's 4-lane Aurora link (3.3 GB/s, 0.5 µs).
package flashctl

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Controller-level errors.
var (
	ErrTagInUse      = errors.New("flashctl: tag already in flight")
	ErrBadTag        = errors.New("flashctl: tag out of range or idle")
	ErrUncorrectable = errors.New("flashctl: uncorrectable ECC error")
	ErrWrongState    = errors.New("flashctl: command in wrong state")
	ErrDataSize      = errors.New("flashctl: write data must be exactly one page")
)

// Op selects the flash operation of a command.
type Op uint8

// Flash operations.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Command is one tagged flash request.
type Command struct {
	Op   Op
	Tag  int
	Addr nand.Addr
}

// Handlers are the user-side callback surface of the controller. Any
// nil handler is simply not invoked.
type Handlers struct {
	// ReadChunk delivers one burst of read data. Bursts belonging to
	// different tags may interleave; bursts of one tag arrive in order.
	ReadChunk func(tag int, offset int, chunk []byte, last bool)
	// ReadDone fires after the final burst (or on error, with a nil
	// page). page is the whole corrected page and corrected is the
	// number of ECC-corrected bit flips in it. Ownership: page is
	// read-only. A clean or corrected read hands out the card's stored
	// data itself, shared with the card and with every other read of the
	// page; a read left with a miscorrected word gets its own copy, but
	// handlers cannot tell which. The handler may keep page (the card never changes it,
	// and an erase does not reclaim it) and pass it on; anything that
	// must modify it copies it first. Its capacity ends at the page. The
	// ReadChunk bursts of the read are sub-slices of the same page.
	ReadDone func(tag int, page []byte, corrected int, err error)
	// WriteDataReq tells the user the controller is ready to accept the
	// page data for a previously issued write command.
	WriteDataReq func(tag int)
	// WriteDone acknowledges a completed (or failed) program.
	WriteDone func(tag int, err error)
	// EraseDone acknowledges a completed (or failed) erase.
	EraseDone func(tag int, err error)
}

// Config sizes the controller.
type Config struct {
	Tags            int   // tag space; in-flight command limit
	BurstBytes      int   // read-data burst granularity on the serial link
	LinkBytesPerSec int64 // card <-> user serial channel bandwidth
	LinkLatency     sim.Time
}

// DefaultConfig matches the paper's flash board: 128 tags, 3.3 GB/s
// Aurora channel at 0.5 µs, 2 KB bursts.
func DefaultConfig() Config {
	return Config{
		Tags:            128,
		BurstBytes:      2048,
		LinkBytesPerSec: 3_300_000_000,
		LinkLatency:     500 * sim.Nanosecond,
	}
}

type tagState uint8

const (
	tagIdle tagState = iota
	tagReading
	tagAwaitingData // write issued, data not yet supplied
	tagWriting
	tagErasing
)

// Controller drives one nand.Card.
type Controller struct {
	eng   *sim.Engine
	card  *nand.Card
	codec *ecc.PageCodec
	cfg   Config
	h     Handlers

	toUser   *sim.Pipe // card -> user (read data)
	fromUser *sim.Pipe // user -> card (write data)

	tags  []tagState
	addrs []nand.Addr

	// stats
	CorrectedBits sim.Counter
	Uncorrectable sim.Counter
	ReadsIssued   sim.Counter
	WritesIssued  sim.Counter
	ErasesIssued  sim.Counter
}

// New builds a controller over card. The card's OOB size must match
// the ECC codec's requirement (PageSize/8).
func New(eng *sim.Engine, card *nand.Card, cfg Config, h Handlers) (*Controller, error) {
	geo := card.Geometry()
	codec, err := ecc.NewPageCodec(geo.PageSize)
	if err != nil {
		return nil, err
	}
	if codec.OOBSize() != geo.OOBSize {
		return nil, fmt.Errorf("flashctl: card OOB %d does not fit ECC need %d", geo.OOBSize, codec.OOBSize())
	}
	if cfg.Tags <= 0 || cfg.BurstBytes <= 0 || cfg.LinkBytesPerSec <= 0 {
		return nil, fmt.Errorf("flashctl: invalid config %+v", cfg)
	}
	name := card.Name()
	return &Controller{
		eng:      eng,
		card:     card,
		codec:    codec,
		cfg:      cfg,
		h:        h,
		toUser:   sim.NewPipe(eng, name+"/link-up", cfg.LinkBytesPerSec, cfg.LinkLatency),
		fromUser: sim.NewPipe(eng, name+"/link-down", cfg.LinkBytesPerSec, cfg.LinkLatency),
		tags:     make([]tagState, cfg.Tags),
		addrs:    make([]nand.Addr, cfg.Tags),
	}, nil
}

// Card returns the underlying nand card (for stats and geometry).
func (c *Controller) Card() *nand.Card { return c.card }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// PageSize returns the logical page size exposed to users.
func (c *Controller) PageSize() int { return c.card.Geometry().PageSize }

// FreeTags returns how many tags are currently idle.
func (c *Controller) FreeTags() int {
	n := 0
	for _, s := range c.tags {
		if s == tagIdle {
			n++
		}
	}
	return n
}

// Issue submits a command. It returns an error synchronously for
// malformed commands (bad tag, tag in use); operation outcomes arrive
// via the handlers.
func (c *Controller) Issue(cmd Command) error {
	if cmd.Tag < 0 || cmd.Tag >= c.cfg.Tags {
		return fmt.Errorf("%w: %d", ErrBadTag, cmd.Tag)
	}
	if c.tags[cmd.Tag] != tagIdle {
		return fmt.Errorf("%w: %d", ErrTagInUse, cmd.Tag)
	}
	c.addrs[cmd.Tag] = cmd.Addr
	switch cmd.Op {
	case OpRead:
		c.tags[cmd.Tag] = tagReading
		c.ReadsIssued.Inc()
		c.startRead(cmd.Tag, cmd.Addr)
	case OpWrite:
		c.tags[cmd.Tag] = tagAwaitingData
		c.WritesIssued.Inc()
		// The scheduler asks for data as soon as the command is queued;
		// backpressure comes from the fromUser link and the nand bus.
		tag := cmd.Tag
		c.eng.After(0, func() {
			if c.h.WriteDataReq != nil {
				c.h.WriteDataReq(tag)
			}
		})
	case OpErase:
		c.tags[cmd.Tag] = tagErasing
		c.ErasesIssued.Inc()
		tag := cmd.Tag
		c.card.EraseBlock(cmd.Addr, func(err error) {
			c.tags[tag] = tagIdle
			if c.h.EraseDone != nil {
				c.h.EraseDone(tag, err)
			}
		})
	default:
		return fmt.Errorf("flashctl: unknown op %v", cmd.Op)
	}
	return nil
}

// WriteData supplies the page for a pending write command. data must be
// exactly one page. The controller takes ownership of data: it becomes
// the page's stored data on the card (see nand.Card.ProgramPage), so
// the caller must neither modify nor reuse it after the call.
func (c *Controller) WriteData(tag int, data []byte) error {
	if tag < 0 || tag >= c.cfg.Tags {
		return fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
	if c.tags[tag] != tagAwaitingData {
		return fmt.Errorf("%w: tag %d is not awaiting data", ErrWrongState, tag)
	}
	if len(data) != c.PageSize() {
		return fmt.Errorf("%w: got %d, want %d", ErrDataSize, len(data), c.PageSize())
	}
	c.tags[tag] = tagWriting
	addr := c.addrs[tag]
	// Data crosses the serial link in 128-bit bursts (modelled as one
	// serialized transfer), then is programmed. The card charges the
	// OOB check bytes on its bus but does not store them: the read path
	// corrects from the error pattern alone (ecc.PageCodec.Correct), so
	// no encode runs here.
	c.fromUser.Transfer(len(data), func() {
		c.card.ProgramPage(addr, data, func(err error) {
			c.finishWrite(tag, err)
		})
	})
	return nil
}

func (c *Controller) finishWrite(tag int, err error) {
	c.tags[tag] = tagIdle
	if c.h.WriteDone != nil {
		c.h.WriteDone(tag, err)
	}
}

func (c *Controller) startRead(tag int, addr nand.Addr) {
	c.card.ReadPage(addr, func(page []byte, flips []int, err error) {
		if err != nil {
			c.finishRead(tag, nil, 0, err)
			return
		}
		// The stored data is what a clean or SEC-DED-corrected read
		// returns, so it streams as is. Injected flips are decoded from
		// their pattern alone; only a word they leave miscorrected
		// (three or more flips) costs a private copy of the page.
		corrected := 0
		if len(flips) > 0 {
			page, corrected, err = c.codec.Correct(page, flips)
			if err != nil {
				c.Uncorrectable.Inc()
				c.finishRead(tag, nil, 0, fmt.Errorf("%w: %v: %v", ErrUncorrectable, addr, err))
				return
			}
			c.CorrectedBits.Add(int64(corrected))
		}
		c.streamBursts(tag, page, 0, corrected)
	})
}

// streamBursts ships the decoded page to the user in BurstBytes chunks
// over the shared serial link. Chunks of concurrent reads interleave in
// link-FIFO order — exactly the out-of-order behaviour §3.1.1 warns
// users about.
func (c *Controller) streamBursts(tag int, data []byte, offset, corrected int) {
	end := offset + c.cfg.BurstBytes
	if end > len(data) {
		end = len(data)
	}
	chunk := data[offset:end]
	last := end == len(data)
	c.toUser.Transfer(len(chunk), func() {
		if c.h.ReadChunk != nil {
			c.h.ReadChunk(tag, offset, chunk, last)
		}
		if last {
			c.finishRead(tag, data, corrected, nil)
			return
		}
		c.streamBursts(tag, data, end, corrected)
	})
}

func (c *Controller) finishRead(tag int, page []byte, corrected int, err error) {
	c.tags[tag] = tagIdle
	if c.h.ReadDone != nil {
		c.h.ReadDone(tag, page, corrected, err)
	}
}
