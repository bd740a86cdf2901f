package synth

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wsnva/internal/field"
	"wsnva/internal/trace"
	"wsnva/internal/trace/check"
)

// goldenTrace runs one labeling round on a side×side grid with a machine-
// level tracer attached and returns the JSONL encoding of every event. The
// blob seed matches the experiments package's standard workload so the
// golden files double as documentation of what a real E-series run emits.
func goldenTrace(t *testing.T, side int) ([]byte, []trace.Event) {
	t.Helper()
	vm, _ := newMachine(side)
	g := vm.Hier.Grid
	m := field.Threshold(field.RandomBlobs(4, g.Terrain, float64(side)/8, float64(side)/5,
		rand.New(rand.NewSource(101))), g, 0.5, 0)
	tr := trace.New()
	vm.SetTracer(tr)
	if _, err := RunOnMachine(vm, m); err != nil {
		t.Fatalf("labeling round failed: %v", err)
	}
	events := tr.Events()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes(), events
}

// TestGoldenTraces pins the exact event stream of the 4×4 and 8×8 labeling
// rounds byte for byte: the merge schedule, the quorum arrivals, and the
// exfiltration are all load-bearing ordering contracts. Regenerate with
// UPDATE_GOLDEN=1 after an intentional protocol change and review the diff
// like any other behavioral change.
func TestGoldenTraces(t *testing.T) {
	for _, side := range []int{4, 8} {
		got, events := goldenTrace(t, side)
		path := filepath.Join("testdata", goldenName(side))
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d events)", path, len(events))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("side %d: trace diverged from %s (%d bytes vs %d); regenerate with UPDATE_GOLDEN=1 if the protocol change is intentional",
				side, path, len(got), len(want))
		}

		// The golden stream must also round-trip through the JSONL decoder
		// and satisfy every invariant the checker knows.
		decoded, err := trace.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("side %d: decode: %v", side, err)
		}
		if len(decoded) != len(events) {
			t.Fatalf("side %d: round-trip lost events: %d != %d", side, len(decoded), len(events))
		}
		if vs := check.Run(decoded, check.Options{Side: side}); len(vs) != 0 {
			t.Errorf("side %d: golden trace violates invariants: %v", side, vs[0])
		}
	}
}

func goldenName(side int) string {
	if side == 4 {
		return "label_4x4.trace.golden.jsonl"
	}
	return "label_8x8.trace.golden.jsonl"
}

// TestGoldenTraceDeterminism re-runs the 4×4 round and demands the encoding
// be byte-identical across runs within one process — the property that
// makes golden files stable at all.
func TestGoldenTraceDeterminism(t *testing.T) {
	a, _ := goldenTrace(t, 4)
	b, _ := goldenTrace(t, 4)
	if !bytes.Equal(a, b) {
		t.Error("two identical runs encoded different traces")
	}
}
