package trace

import (
	"strings"
	"testing"

	"torusx/internal/oracle"
	"torusx/internal/topology"
)

func sched(t *testing.T) *oracle.Result {
	t.Helper()
	res, err := oracle.Run(topology.MustNew(8, 8), oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSummary(t *testing.T) {
	res := sched(t)
	out := Summary(res.Schedule)
	if !strings.Contains(out, "8x8 torus") {
		t.Fatalf("missing torus name:\n%s", out)
	}
	if !strings.Contains(out, "4 phases, 6 steps") {
		t.Fatalf("missing phase/step counts:\n%s", out)
	}
	for _, phase := range []string{"group-1", "group-2", "quad", "bit"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("missing phase %q:\n%s", phase, out)
		}
	}
}

func TestDetailTruncation(t *testing.T) {
	res := sched(t)
	full := Detail(res.Schedule, 0)
	if strings.Contains(full, "more") {
		t.Fatal("no truncation expected with limit 0")
	}
	short := Detail(res.Schedule, 2)
	if !strings.Contains(short, "... 62 more") {
		t.Fatalf("expected truncation marker:\n%s", short[:400])
	}
	if !strings.Contains(full, "dim 0+") && !strings.Contains(full, "dim 0-") {
		t.Fatalf("expected dim annotations:\n%s", full[:400])
	}
}

func TestNodeHistory(t *testing.T) {
	res := sched(t)
	out := NodeHistory(res.Schedule, 0)
	if !strings.Contains(out, "node 0 (0,0)") {
		t.Fatalf("missing header:\n%s", out)
	}
	// Node 0 sends in every phase of an 8x8 run: 1 step per group
	// phase, 2 quad, 2 bit.
	if got := strings.Count(out, "send"); got != 6 {
		t.Fatalf("node 0 sends %d times, want 6:\n%s", got, out)
	}
	if got := strings.Count(out, "recv"); got != 6 {
		t.Fatalf("node 0 receives %d times, want 6:\n%s", got, out)
	}
}
