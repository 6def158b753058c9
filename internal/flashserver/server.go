package flashserver

import (
	"errors"
	"fmt"

	"repro/internal/flashctl"
	"repro/internal/nand"
)

// Server errors.
var (
	ErrNoMapping   = errors.New("flashserver: file handle not mapped")
	ErrOutOfBounds = errors.New("flashserver: offset beyond file mapping")
)

// Server is the optional Flash Server module (paper §3.1.2): it turns
// the controller's out-of-order interleaved interface into simple
// in-order request/response interfaces using page buffers, and hosts
// the Address Translation Unit for file-handle based requests.
type Server struct {
	port *Port
	atu  *ATU

	queueDepth    int
	nextTag       int
	inflight      map[int]*pageOp
	pendingWrites map[int][]byte // write data waiting for the controller's pull

	ifaces []*Iface
}

// pageOp carries completion plumbing for any op kind, and a read's
// page until the interface delivers it in order.
type pageOp struct {
	iface *Iface
	seq   uint64
	buf   []byte
	done  bool
	err   error
	kind  flashctl.Op
}

// Iface is one in-order interface of the server. Responses on an
// interface are delivered strictly in request order, like a FIFO,
// regardless of how the flash reorders them internally.
type Iface struct {
	srv  *Server
	name string

	nextSeq  uint64
	headSeq  uint64
	complete map[uint64]*pageOp // finished ops waiting for FIFO order
	cbs      map[uint64]any     // seq -> callback
	pendingQ []func()           // ops waiting for queue-depth credit
	credits  int
}

// NewServer attaches a Flash Server to a splitter. queueDepth bounds
// the per-interface number of requests outstanding at the controller
// (the "command queue depth" parameter of the paper).
func NewServer(sp *Splitter, name string, queueDepth int) *Server {
	if queueDepth <= 0 {
		queueDepth = 8
	}
	srv := &Server{
		atu:           NewATU(),
		queueDepth:    queueDepth,
		inflight:      make(map[int]*pageOp),
		pendingWrites: make(map[int][]byte),
	}
	srv.port = sp.NewPort(name, flashctl.Handlers{
		// The page is whole and read-only, possibly shared with the card
		// (see flashctl.Handlers), so it is delivered as is instead of
		// reassembled from the bursts; ReadPhysical callers get it under
		// the same read-only contract.
		ReadDone: func(tag int, page []byte, corrected int, err error) {
			if op := srv.inflight[tag]; op != nil {
				op.buf = page
			}
			srv.finish(tag, err)
		},
		WriteDataReq: func(tag int) {
			data, ok := srv.pendingWrites[tag]
			if !ok {
				return
			}
			delete(srv.pendingWrites, tag)
			if err := srv.port.WriteData(tag, data); err != nil {
				srv.finish(tag, err)
			}
		},
		WriteDone: func(tag int, err error) {
			srv.finish(tag, err)
		},
		EraseDone: func(tag int, err error) {
			srv.finish(tag, err)
		},
	})
	return srv
}

// ATU returns the server's address translation unit.
func (s *Server) ATU() *ATU { return s.atu }

// NewIface creates an in-order interface. The paper makes the number
// of interfaces a design-time parameter; here it is just a
// constructor call.
func (s *Server) NewIface(name string) *Iface {
	f := &Iface{
		srv:      s,
		name:     name,
		complete: make(map[uint64]*pageOp),
		cbs:      make(map[uint64]any),
		credits:  s.queueDepth,
	}
	s.ifaces = append(s.ifaces, f)
	return f
}

func (s *Server) finish(tag int, err error) {
	op := s.inflight[tag]
	if op == nil {
		return
	}
	delete(s.inflight, tag)
	op.done = true
	op.err = err
	f := op.iface
	f.complete[op.seq] = op
	f.drainInOrder()
}

// ReadPhysical reads the page at a physical address. The callback
// fires in FIFO order relative to other requests on this interface.
// data is read-only: it may be the card's stored page itself, shared
// with every other read of it (see flashctl.Handlers.ReadDone), so a
// consumer that must modify it copies it first.
func (f *Iface) ReadPhysical(addr nand.Addr, cb func(data []byte, err error)) {
	seq := f.nextSeq
	f.nextSeq++
	f.cbs[seq] = cb
	//simlint:allow hotcall (per-op credit continuation: one bounded closure per in-flight flash command, hidden under NAND latency)
	f.withCredit(func() {
		tag := f.srv.nextTag
		f.srv.nextTag++
		//simlint:allow escapecheck (per-op completion record keyed by tag and seq; one bounded allocation per in-flight command, hidden under NAND latency)
		op := &pageOp{iface: f, seq: seq, kind: flashctl.OpRead}
		f.srv.inflight[tag] = op
		if err := f.srv.port.Issue(flashctl.Command{Op: flashctl.OpRead, Tag: tag, Addr: addr}); err != nil {
			delete(f.srv.inflight, tag)
			op.done, op.err = true, err
			f.complete[seq] = op
			f.drainInOrder()
		}
	})
}

// ReadFile reads page number pageOff of the file mapped under handle,
// using the ATU (the in-store processor path of paper Figure 8).
func (f *Iface) ReadFile(handle FileHandle, pageOff int, cb func(data []byte, err error)) {
	addr, err := f.srv.atu.Translate(handle, pageOff)
	if err != nil {
		// Order must still hold: inject a completed-with-error op.
		seq := f.nextSeq
		f.nextSeq++
		f.cbs[seq] = cb
		f.complete[seq] = &pageOp{iface: f, seq: seq, done: true, err: err, kind: flashctl.OpRead}
		f.drainInOrder()
		return
	}
	f.ReadPhysical(addr, cb)
}

// WritePhysical programs a page. The ack callback fires in FIFO order.
func (f *Iface) WritePhysical(addr nand.Addr, data []byte, cb func(err error)) {
	seq := f.nextSeq
	f.nextSeq++
	f.cbs[seq] = cb
	// Snapshot the payload now: the credit callback may run later, and
	// callers are free to reuse their buffer after this call returns.
	buf := make([]byte, len(data))
	copy(buf, data)
	f.withCredit(func() {
		tag := f.srv.nextTag
		f.srv.nextTag++
		op := &pageOp{iface: f, seq: seq, kind: flashctl.OpWrite}
		f.srv.inflight[tag] = op
		// Stash the data first: the controller pulls it via WriteDataReq
		// as soon as its scheduler is ready.
		f.srv.pendingWrites[tag] = buf
		if err := f.srv.port.Issue(flashctl.Command{Op: flashctl.OpWrite, Tag: tag, Addr: addr}); err != nil {
			delete(f.srv.inflight, tag)
			delete(f.srv.pendingWrites, tag)
			op.done, op.err = true, err
			f.complete[seq] = op
			f.drainInOrder()
		}
	})
}

// Erase erases a block. The ack callback fires in FIFO order.
func (f *Iface) Erase(addr nand.Addr, cb func(err error)) {
	seq := f.nextSeq
	f.nextSeq++
	f.cbs[seq] = cb
	f.withCredit(func() {
		tag := f.srv.nextTag
		f.srv.nextTag++
		op := &pageOp{iface: f, seq: seq, kind: flashctl.OpErase}
		f.srv.inflight[tag] = op
		if err := f.srv.port.Issue(flashctl.Command{Op: flashctl.OpErase, Tag: tag, Addr: addr}); err != nil {
			delete(f.srv.inflight, tag)
			op.done, op.err = true, err
			f.complete[seq] = op
			f.drainInOrder()
		}
	})
}

// withCredit runs fn when a queue-depth credit is available.
func (f *Iface) withCredit(fn func()) {
	if f.credits > 0 {
		f.credits--
		fn()
		return
	}
	f.pendingQ = append(f.pendingQ, fn)
}

func (f *Iface) releaseCredit() {
	if len(f.pendingQ) > 0 {
		fn := f.pendingQ[0]
		// Clear the slot before reslicing: the backing array would
		// otherwise keep the consumed closure, and with it a queued
		// write's page snapshot, reachable until append reallocates.
		f.pendingQ[0] = nil
		f.pendingQ = f.pendingQ[1:]
		fn()
		return
	}
	f.credits++
}

// drainInOrder delivers completed ops from the FIFO head.
func (f *Iface) drainInOrder() {
	for {
		op, ok := f.complete[f.headSeq]
		if !ok {
			return
		}
		delete(f.complete, f.headSeq)
		cb := f.cbs[f.headSeq]
		delete(f.cbs, f.headSeq)
		f.headSeq++
		f.releaseCredit()
		switch c := cb.(type) {
		case func(data []byte, err error):
			c(op.buf, op.err)
		case func(err error):
			c(op.err)
		default:
			panic(fmt.Sprintf("flashserver: unknown callback type %T", cb))
		}
	}
}
