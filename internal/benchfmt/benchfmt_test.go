package benchfmt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func valid() *File {
	return &File{
		Schema: Schema, GoOS: "linux", GoArch: "amd64", GoMaxProcs: 4,
		Entries: []Entry{
			{Alg: "proposed", Dims: []int{8, 8}, Parallel: true,
				NsPerOp: 1234.5, AllocsPerOp: 10, BytesPerOp: 2048,
				Steps: 10, Blocks: 144, Hops: 20, Rearranged: 192, MaxSharing: 1},
			{Alg: "direct", Dims: []int{8, 8}, Parallel: true,
				NsPerOp: 99, AllocsPerOp: 1, BytesPerOp: 64,
				Steps: 63, Blocks: 184, Hops: 300, Rearranged: 0, MaxSharing: 1},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := valid()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0].Key() != "proposed@8x8" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.ByKey()["direct@8x8"].Steps != 63 {
		t.Fatalf("ByKey lookup broken")
	}
}

func TestValidateRejects(t *testing.T) {
	for name, mutate := range map[string]func(*File){
		"wrong schema":    func(f *File) { f.Schema = "torusx-bench/v0" },
		"no goos":         func(f *File) { f.GoOS = "" },
		"zero gomaxprocs": func(f *File) { f.GoMaxProcs = 0 },
		"no entries":      func(f *File) { f.Entries = nil },
		"empty alg":       func(f *File) { f.Entries[0].Alg = "" },
		"no dims":         func(f *File) { f.Entries[0].Dims = nil },
		"zero dim":        func(f *File) { f.Entries[0].Dims = []int{8, 0} },
		"zero ns":         func(f *File) { f.Entries[0].NsPerOp = 0 },
		"negative allocs": func(f *File) { f.Entries[0].AllocsPerOp = -1 },
		"zero steps":      func(f *File) { f.Entries[0].Steps = 0 },
		"zero sharing":    func(f *File) { f.Entries[0].MaxSharing = 0 },
		"duplicate":       func(f *File) { f.Entries[1] = f.Entries[0] },
		"one sample":      func(f *File) { f.Entries[0].Samples = 1; f.Entries[0].NsMin = 1; f.Entries[0].NsMax = 2 },
		"min > max":       func(f *File) { f.Entries[0].Samples = 3; f.Entries[0].NsMin = 5; f.Entries[0].NsMax = 2 },
		"zero min":        func(f *File) { f.Entries[0].Samples = 3; f.Entries[0].NsMax = 2 },
		"neg stddev": func(f *File) {
			f.Entries[0].Samples = 3
			f.Entries[0].NsMin, f.Entries[0].NsMax, f.Entries[0].NsStddev = 1, 2, -1
		},
		// The BENCH_exec.json bug this invariant caught: a benchmark-grade
		// ns/op below the single-run sampled floor (allgather 8x8: 45 vs 118).
		"ns/op below sampled min": func(f *File) {
			f.Entries[0].Samples = 3
			f.Entries[0].NsMin, f.Entries[0].NsMax = f.Entries[0].NsPerOp+10, f.Entries[0].NsPerOp+100
		},
		"ns/op above sampled max": func(f *File) {
			f.Entries[0].Samples = 3
			f.Entries[0].NsMin, f.Entries[0].NsMax = 1, f.Entries[0].NsPerOp/2
		},
		"negative compile ns":     func(f *File) { f.Entries[0].CompileNs = -1 },
		"negative compile allocs": func(f *File) { f.Entries[0].CompileAllocs = -5 },
	} {
		f := valid()
		mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVarianceFieldsRoundTrip(t *testing.T) {
	f := valid()
	f.Entries[0].NsMin, f.Entries[0].NsMax, f.Entries[0].NsStddev = 900, 1500, 210.5
	f.Entries[0].Samples = 5
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := got.ByKey()["proposed@8x8"]
	if e.NsMin != 900 || e.NsMax != 1500 || e.NsStddev != 210.5 || e.Samples != 5 {
		t.Fatalf("variance fields lost: %+v", e)
	}
	// Entries without spread (old ledgers) stay valid.
	if e2 := got.ByKey()["direct@8x8"]; e2.Samples != 0 {
		t.Fatalf("single-sample entry grew samples: %+v", e2)
	}
}

func TestCompileFieldsRoundTrip(t *testing.T) {
	f := valid()
	f.Entries[0].CompileNs = 123456
	f.Entries[0].CompileAllocs = 789
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := got.ByKey()["proposed@8x8"]
	if e.CompileNs != 123456 || e.CompileAllocs != 789 {
		t.Fatalf("compile fields lost: %+v", e)
	}
	// Pre-cache ledgers (no compile columns) stay valid and decode to zero.
	if e2 := got.ByKey()["direct@8x8"]; e2.CompileNs != 0 || e2.CompileAllocs != 0 {
		t.Fatalf("absent compile fields decoded nonzero: %+v", e2)
	}
}

func TestSampleStats(t *testing.T) {
	min, max, sd := SampleStats([]float64{4, 2, 6})
	if min != 2 || max != 6 {
		t.Fatalf("min/max = %v/%v", min, max)
	}
	if d := sd - 1.632993161855452; d > 1e-12 || d < -1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
	if a, b, c := SampleStats(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty sample set should be all-zero")
	}
	if _, _, sd := SampleStats([]float64{7, 7, 7}); sd != 0 {
		t.Fatalf("constant samples stddev = %v", sd)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"torusx-bench/v1","surprise":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestCompare(t *testing.T) {
	old := valid() // proposed@8x8 allocs 10, direct@8x8 allocs 1
	cur := valid()
	// Improvement: far fewer allocs, faster.
	cur.Entries[0].AllocsPerOp = 2
	cur.Entries[0].NsPerOp = 617.25 // -50%
	// Within slack: +10 allocs on a 1-alloc baseline stays under 1*1.25+16.
	cur.Entries[1].AllocsPerOp = 11
	deltas, ungated, regressed := Compare(old, cur, 25)
	if regressed || len(ungated) != 0 {
		t.Fatalf("unexpected regression or ungated cells: %+v %v", deltas, ungated)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	if deltas[0].NsDeltaPct != -50 {
		t.Errorf("ns delta %.1f%%, want -50%%", deltas[0].NsDeltaPct)
	}
	if deltas[0].AllocsDeltaPct != -80 {
		t.Errorf("allocs delta %.1f%%, want -80%%", deltas[0].AllocsDeltaPct)
	}

	// Beyond tolerance + slack: regression.
	cur = valid()
	cur.Entries[0].AllocsPerOp = 100 // baseline 10: limit 10*1.25+16 = 28.5
	deltas, _, regressed = Compare(old, cur, 25)
	if !regressed || !deltas[0].Regressed {
		t.Fatalf("alloc regression not flagged: %+v", deltas)
	}
	if deltas[1].Regressed {
		t.Fatalf("unchanged cell flagged: %+v", deltas[1])
	}

	// Cells missing from the baseline are skipped, not regressions,
	// and named as ungated in the current ledger's order, whatever
	// their alloc count.
	cur = valid()
	cur.Entries[0].Alg = "brand-new"
	extra := cur.Entries[1]
	extra.Alg, extra.AllocsPerOp = "reducescatter", 1000
	cur.Entries = append(cur.Entries, extra)
	deltas, ungated, regressed = Compare(old, cur, 25)
	if regressed || len(deltas) != 1 {
		t.Fatalf("new cell mishandled: regressed=%v deltas=%+v", regressed, deltas)
	}
	if want := []string{cur.Entries[0].Key(), extra.Key()}; !reflect.DeepEqual(ungated, want) {
		t.Fatalf("ungated %v, want %v", ungated, want)
	}
}
