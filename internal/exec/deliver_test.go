package exec_test

import (
	"slices"
	"testing"

	"torusx/internal/exec"
	"torusx/internal/topology"
)

// deliverModes are the replay paths the tiled delivery pass runs on:
// serial, and the parallel pass with every delivery fanned out, at the
// default width and at one that splits the nodes mid-tile.
var deliverModes = []struct {
	label  string
	opt    exec.Options
	fanAll bool
}{
	{"serial", exec.Options{Serial: true}, false},
	{"fanout", exec.Options{}, true},
	{"fanout-3", exec.Options{Workers: 3}, true},
}

// withMode runs f, with every delivery fanned out when fanAll is set.
func withMode(fanAll bool, f func()) {
	if fanAll {
		defer exec.SetFanOutElems(exec.SetFanOutElems(0))
	}
	f()
}

// TestTiledDeliveryDifferential holds the tiled delivery pass of every
// last-hop-only program to the node-at-a-time pass it replaced, through
// RunArena and ReplayInto, serial and fanned out: element for element,
// and, on a plan edited to misdeliver, error for error. The fabrics
// leave a partial last tile (15, 49 and 18 nodes; 4×4×4's 64 fill
// theirs), and the sparse matrices leave some nodes nothing to receive.
func TestTiledDeliveryDifferential(t *testing.T) {
	small := []topology.Fabric{topology.MustNew(7, 7), topology.MustNewDragonfly(2, 3)}
	rows := registryRows(t, []topology.Fabric{
		topology.MustNew(3, 5), topology.MustNew(7, 7), topology.MustNew(4, 4, 4), topology.MustNewDragonfly(2, 3),
	}, "", atName)
	for _, gen := range []string{"hotspot:k=2,seed=1", "uniform:p=0.05,seed=1"} {
		rows = append(rows, registryRows(t, small, gen, func(alg string, fab topology.Fabric) string {
			return alg + "@" + fab.String() + "+" + gen
		})...)
	}
	tiled, idle := 0, 0
	for _, r := range rows {
		pg, err := exec.Compile(r.sc, exec.Options{Traffic: r.traffic})
		if err != nil {
			t.Fatalf("%s: Compile: %v", r.name, err)
		}
		if !pg.Stats().LastHopOnly {
			continue
		}
		tiled++
		for v := 0; v < r.sc.Fabric.Nodes(); v++ {
			if pg.DeliveryOffset(v) == pg.DeliveryOffset(v+1) {
				idle++
				break
			}
		}
		t.Run(r.name, func(t *testing.T) {
			checkTiledDelivery(t, pg, r.sc.Fabric.Nodes())
			checkTiledMisdelivery(t, pg, r.sc.Fabric)
		})
	}
	if tiled == 0 || idle == 0 {
		t.Fatalf("%d last-hop-only rows, %d with a node that receives nothing; want some of each", tiled, idle)
	}
}

// checkTiledDelivery compares every replay path's delivery with the
// untiled pass over the same final log.
func checkTiledDelivery(t *testing.T, pg *exec.Program, n int) {
	t.Helper()
	a := pg.NewArena()
	if _, err := pg.RunArena(a, exec.Options{Serial: true}); err != nil {
		t.Fatal(err)
	}
	want := make([]int32, pg.DeliverySize())
	if err := exec.DeliverPass(pg, a, want, true); err != nil {
		t.Fatalf("untiled pass: %v", err)
	}
	got := make([]int32, len(want))
	for _, m := range deliverModes {
		withMode(m.fanAll, func() {
			for i := range got {
				got[i] = -1
			}
			if err := pg.ReplayInto(a, got, m.opt); err != nil {
				t.Fatalf("%s/ReplayInto: %v", m.label, err)
			}
			sameIDs(t, m.label+"/ReplayInto", want, got)
			res, err := pg.RunArena(a, m.opt)
			if err != nil {
				t.Fatalf("%s/RunArena: %v", m.label, err)
			}
			got = got[:0]
			for v, buf := range res.Buffers {
				for _, b := range buf.View() {
					if int(b.Dest) != v {
						t.Fatalf("%s/RunArena: node %d holds %v", m.label, v, b)
					}
					got = append(got, int32(int(b.Origin)*n+v))
				}
			}
			sameIDs(t, m.label+"/RunArena", want, got)
		})
	}
}

// checkTiledMisdelivery shifts the first delivery descriptor of up to
// three receiving nodes, the last, the middle and the second, by one log
// slot, which the decoder accepts,
// and requires every path to report the untiled pass's error: the
// lowest misdelivered node's.
func checkTiledMisdelivery(t *testing.T, pg *exec.Program, fab topology.Fabric) {
	t.Helper()
	n := fab.Nodes()
	var receivers, targets []int
	for v := 0; v < n; v++ {
		if pg.DeliveryOffset(v) < pg.DeliveryOffset(v+1) {
			receivers = append(receivers, v)
		}
	}
	for _, i := range []int{len(receivers) - 1, len(receivers) / 2, 1} {
		if v := receivers[min(i, len(receivers)-1)]; !slices.Contains(targets, v) {
			targets = append(targets, v)
		}
	}
	const fp = 3
	enc, err := exec.EncodeWithPlanEdit(pg, fp, func(_ []exec.MoveRec, off, descBase []int32, descs []exec.DescRec) {
		for _, v := range targets {
			d := &descs[off[v]]
			last := d.Start + (d.Count-1)*d.Stride
			if max(d.Start, last)+d.BlockLen < descBase[n] {
				d.Start++
			} else {
				d.Start--
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := exec.DecodeProgram(enc, fab, fp)
	if err != nil {
		t.Fatalf("decode the edited plan: %v", err)
	}
	// A program without log moves reads only its initial log, which a
	// fresh arena already holds.
	wantErr := exec.DeliverPass(dec, dec.NewArena(), make([]int32, dec.DeliverySize()), true)
	if wantErr == nil {
		t.Fatalf("shifted descriptors of nodes %v misdeliver nothing", targets)
	}
	for _, m := range deliverModes {
		withMode(m.fanAll, func() {
			if _, err := dec.RunArena(dec.NewArena(), m.opt); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s/RunArena: err = %v, want %v", m.label, err, wantErr)
			}
			err := dec.ReplayInto(dec.NewArena(), make([]int32, dec.DeliverySize()), m.opt)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s/ReplayInto: err = %v, want %v", m.label, err, wantErr)
			}
		})
	}
}
