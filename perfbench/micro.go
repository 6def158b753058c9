package main

// Micro metrics: host time of synchronous public functions, called
// directly. Each is the median of several batches, so one descheduled
// batch does not move it.

import (
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/sim"
)

type microResult struct {
	eccEncodeNs      float64 // ns per ecc.PageCodec.EncodePage
	eccDecodeNs      float64 // ns per ecc.PageCodec.DecodePageInPlace
	engineNsPerEvent float64 // ns per sim.Engine.After + fire on a trivial chain
}

const microBatches = 7

func runMicro(pageSize int, seed uint64) (microResult, error) {
	var res microResult
	codec, err := ecc.NewPageCodec(pageSize)
	if err != nil {
		return res, err
	}
	page := make([]byte, pageSize)
	sim.NewRNG(seed).Bytes(page)
	raw, err := codec.EncodePage(page)
	if err != nil {
		return res, err
	}
	const pages = 200
	var enc, dec, ev []float64
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < pages; i++ {
			if _, err := codec.EncodePage(page); err != nil {
				return res, err
			}
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/pages)

		t0 = time.Now()
		for i := 0; i < pages; i++ {
			r, err := codec.DecodePageInPlace(raw)
			if err != nil {
				return res, err
			}
			if r.Corrected != 0 {
				return res, fmt.Errorf("ecc micro: clean page decoded with %d corrections", r.Corrected)
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/pages)

		ev = append(ev, engineChain(100_000))
	}
	res.eccEncodeNs, res.eccDecodeNs, res.engineNsPerEvent = median(enc), median(dec), median(ev)
	return res, nil
}

// engineChain fires n events, each scheduling the next, and returns
// host ns per event.
func engineChain(n int) float64 {
	eng := sim.NewEngine()
	left := n
	var step func()
	step = func() {
		left--
		if left > 0 {
			eng.After(sim.Nanosecond, step)
		}
	}
	t0 := time.Now()
	eng.After(sim.Nanosecond, step)
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
