package radio

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/wire"
)

// FuzzMediumConservation drives an arbitrary script of unicasts, broadcasts,
// and fail-stop kills — with fuzzed packet sizes and loss seeds — through a
// 4x4 lattice medium carrying wire-encoded summaries, and checks the
// accounting invariants the fault experiments rest on:
//
//   - conservation: every transmission attempt by an alive sender ends up
//     exactly once in delivered or dropped (loss draws and dead receivers
//     included) once the kernel drains;
//   - the ledger never goes negative on any node;
//   - payloads that do arrive decode to the summary that was sent — the
//     radio may drop, but it must not corrupt.
//
// Every script runs twice: at the fuzzed loss, and without loss, where
// broadcasts fan out over the sender's CSR row in place.
func FuzzMediumConservation(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(30), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(3), uint8(89), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add(int64(-9), uint8(50), []byte("kill them all and count the bill"))
	f.Fuzz(func(t *testing.T, seed int64, lossByte uint8, script []byte) {
		// A 4x4 unit-spaced lattice with range 1.1: each node hears its
		// orthogonal neighbors only.
		pts := make([]geom.Point, 0, 16)
		for row := 0; row < 4; row++ {
			for col := 0; col < 4; col++ {
				pts = append(pts, geom.Point{X: float64(col) + 0.5, Y: float64(row) + 0.5})
			}
		}
		nw := deploy.FromPoints(pts, geom.Rect{MaxX: 4, MaxY: 4}, 1.1)
		g := geom.NewSquareGrid(4, 4)
		want := regions.LeafBlock(field.Parse(g, "##..", "#...", "..##", "...#"), 0, 0, 4, 4)
		enc := wire.EncodeSummary(want)
		for _, loss := range []float64{float64(lossByte%90) / 100, 0} {
			kernel := sim.New()
			ledger := cost.NewLedger(cost.NewUniform(), nw.N())
			med := NewMedium(nw, kernel, ledger, rand.New(rand.NewSource(seed)), Config{Loss: loss})
			med.SetReceiver(func(_ int, p Packet) {
				b, ok := p.Payload.([]byte)
				if !ok {
					t.Fatalf("loss %v: payload type %T reached the receiver", loss, p.Payload)
				}
				got, err := wire.DecodeSummary(g, b)
				if err != nil {
					t.Fatalf("loss %v: delivered payload no longer decodes: %v", loss, err)
				}
				if !got.Equal(want) {
					t.Fatalf("loss %v: delivered summary differs from the sent one", loss)
				}
			})

			attempts := int64(0)
			for _, b := range script {
				from := int(b) % nw.N()
				size := int64(b >> 2) // fuzzed logical packet size, 0..63
				switch b % 5 {
				case 0:
					med.Kill(from)
				case 1:
					if med.Alive(from) {
						attempts += int64(len(nw.Neighbors(from)))
					}
					med.Broadcast(from, size, enc)
				default:
					nbrs := nw.Neighbors(from)
					if len(nbrs) == 0 {
						continue
					}
					to := nbrs[int(b>>3)%len(nbrs)]
					if med.Alive(from) {
						attempts++
					}
					med.Unicast(from, int(to), size, enc)
				}
			}
			kernel.Run()

			_, delivered, dropped := med.Stats()
			if delivered+dropped != attempts {
				t.Fatalf("loss %v: conservation broken: %d attempts, %d delivered + %d dropped",
					loss, attempts, delivered, dropped)
			}
			for i := 0; i < ledger.N(); i++ {
				if ledger.Energy(i) < 0 {
					t.Fatalf("loss %v: node %d holds negative energy %d", loss, i, ledger.Energy(i))
				}
			}
		}
	})
}
