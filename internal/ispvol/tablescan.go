package ispvol

// Distributed table scan (the paper's §8 "SQL Database Acceleration"
// direction): selection and projection pushed down into every storage
// device that holds a shard of the table. Each engine filters its
// pages at line rate and only qualifying records cross the network to
// the origin; the Host placement hauls every page over PCIe and
// filters in software.

import (
	"sort"

	"repro/internal/accel/tablescan"
	"repro/internal/sim"
)

// ScanResult reports one distributed table-scan query.
type ScanResult struct {
	Rows        int64 // rows scanned (all nodes)
	Matches     []tablescan.Record
	Pages       int
	FailedPages int
	BytesToHost int64 // data that crossed into the origin host's memory
	Elapsed     sim.Time
	RowsPerSec  float64
}

func (r *ScanResult) stamp(elapsed sim.Time) {
	r.Elapsed = elapsed
	if elapsed > 0 {
		r.RowsPerSec = float64(r.Rows) / elapsed.Seconds()
	}
}

// TableScan runs the ISP-F table scan of pred over the source's
// pages on the given placement: on Device, the predicate is evaluated
// next to the flash and only matching records are shipped to the
// origin and DMA'd to its host. Asynchronous like Search; Matches
// come back sorted by record ID.
//
//simlint:once done
func (sys *System) TableScan(origin int, src Source, pl Placement, pred tablescan.Predicate, done func(*ScanResult, error)) {
	launch(sys, origin, src, pl, &scanKernel{pred: pred}, done)
}

// scanKernel is the table-scan query and its merged answer.
type scanKernel struct {
	pred    tablescan.Predicate
	rows    int64
	matches []tablescan.Record
}

func (k *scanKernel) prepare(int, int) error { return nil }

func (k *scanKernel) startBytes(refs int) int { return 32 + 16*refs }

func (k *scanKernel) pageCost(ps int) sim.Time {
	return sim.Time(tablescan.RecordsPerPage(ps)) * tablescan.HostFilterCPUPerRow
}

func (k *scanKernel) newPartial() partial { return &scanPartial{pred: k.pred} }

// scanPartial holds the qualifying records of its pages.
type scanPartial struct {
	pred    tablescan.Predicate
	rows    int64
	matches []tablescan.Record
}

func (p *scanPartial) fold(_ int, data []byte) bool {
	matches, rows, err := tablescan.FilterPage(data, p.pred)
	if err != nil {
		return false
	}
	p.rows += rows
	p.matches = append(p.matches, matches...)
	return true
}

func (p *scanPartial) wireBytes() int { return 32 + tablescan.RecordSize*len(p.matches) }

func (k *scanKernel) merge(pp partial) {
	p := pp.(*scanPartial)
	k.rows += p.rows
	k.matches = append(k.matches, p.matches...)
}

// result orders the records; they are the result DMA. On the Host
// placement every page already crossed into host memory instead.
func (k *scanKernel) result(t tally) (*ScanResult, int) {
	sort.Slice(k.matches, func(i, j int) bool { return k.matches[i].ID < k.matches[j].ID })
	res := &ScanResult{
		Rows:        k.rows,
		Matches:     k.matches,
		Pages:       t.pages,
		FailedPages: t.failed,
		BytesToHost: int64(len(k.matches)) * tablescan.RecordSize,
	}
	dma := int(res.BytesToHost)
	if t.placement == Host {
		res.BytesToHost = t.hostBytes
	}
	return res, dma
}
