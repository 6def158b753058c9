package flashctl

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// BenchmarkReadPage times one completed controller page read at the
// default card's bit-error rate: the nand read, the ECC correction of
// its flip list (empty on most reads) and the burst stream to the user.
func BenchmarkReadPage(b *testing.B) {
	eng := sim.NewEngine()
	card, err := nand.NewCard(eng, "bench", testGeometry(), nand.DefaultTiming(), nand.DefaultReliability(), 3)
	if err != nil {
		b.Fatal(err)
	}
	var ctl *Controller
	done := 0
	ctl, err = New(eng, card, DefaultConfig(), Handlers{
		WriteDataReq: func(tag int) {
			if err := ctl.WriteData(tag, pattern(8192, 1)); err != nil {
				b.Fatal(err)
			}
		},
		ReadDone: func(_ int, _ []byte, _ int, err error) {
			if err != nil {
				b.Fatal(err)
			}
			done++
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	if err := ctl.Issue(Command{Op: OpWrite, Tag: 0, Addr: addr}); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctl.Issue(Command{Op: OpRead, Tag: 1, Addr: addr}); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	if done != b.N {
		b.Fatalf("%d of %d reads completed", done, b.N)
	}
}
