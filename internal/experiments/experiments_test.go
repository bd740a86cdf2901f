package experiments

import (
	"strings"
	"testing"
)

// All experiment tables must build without panicking, contain data rows,
// and carry the claim-bearing columns. Shape assertions about the numbers
// live here too, so a regression in any substrate breaks this suite, not
// just the printed report.

func TestE1MappingTable(t *testing.T) {
	tab := E1Mapping(Options{})
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 levels", tab.NumRows())
	}
	out := tab.String()
	// The paper's quoted placements must appear verbatim.
	if !strings.Contains(out, "0,4,8,12") {
		t.Errorf("level-1 placements missing:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Errorf("a constraint check failed:\n%s", out)
	}
}

func TestE2StepsTable(t *testing.T) {
	tab := E2Steps(Options{Quick: true})
	if tab.NumRows() < 2 {
		t.Fatal("need at least 2 sizes")
	}
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("engine disagreement:\n%s", out)
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3DCvsCentral(Options{Quick: true})
	out := tab.String()
	if !strings.Contains(out, "d&c") {
		t.Errorf("expected d&c to win somewhere:\n%s", out)
	}
}

func TestE4Table(t *testing.T) {
	tab := E4Balance(Options{Quick: true})
	if tab.NumRows() < 2 {
		t.Fatal("too few rows")
	}
}

func TestE5Table(t *testing.T) {
	tab := E5Emulation(Options{Quick: true})
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("emulation incomplete in some row:\n%s", out)
	}
}

func TestE6Table(t *testing.T) {
	tab := E6Election(Options{Quick: true})
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("election incorrect in some row:\n%s", out)
	}
}

func TestE7Table(t *testing.T) {
	tab := E7Loss(Options{Quick: true})
	// 6 loss points x {0,3} retries, minus the skipped loss-0/retries-3 row.
	if tab.NumRows() != 11 {
		t.Fatalf("rows = %d, want 11", tab.NumRows())
	}
}

func TestE11Table(t *testing.T) {
	tab := E11SyncSteps(Options{Quick: true})
	if tab.NumRows() < 2 {
		t.Fatal("too few rows")
	}
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("lockstep energy diverged from DES:\n%s", out)
	}
}

func TestE8Table(t *testing.T) {
	tab := E8Correspondence(Options{Quick: true})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want one per level of the 4x4 grid", tab.NumRows())
	}
	out := tab.String()
	// Correlation column must be near 1; spot-check no negative signs in
	// the correlation column by rendering and scanning for "-0." or "-1".
	if strings.Contains(out, "-0.") || strings.Contains(out, "-1") {
		t.Errorf("suspicious negative correlation:\n%s", out)
	}
}

func TestE9Table(t *testing.T) {
	tab := E9Collectives(Options{Quick: true})
	if tab.NumRows() == 0 {
		t.Fatal("empty table")
	}
}

func TestE10Table(t *testing.T) {
	tab := E10Churn(Options{Quick: true})
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("repair left the emulation incomplete:\n%s", out)
	}
}

func TestE12Table(t *testing.T) {
	tab := E12TreeTopology(Options{Quick: true})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 in quick mode", tab.NumRows())
	}
}

func TestE13Table(t *testing.T) {
	tab := E13LossyEmulation(Options{Quick: true})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 in quick mode", tab.NumRows())
	}
	out := tab.String()
	// Loss-free row must complete on the first run.
	if !strings.Contains(out, "true") {
		t.Errorf("loss-free emulation should complete immediately:\n%s", out)
	}
}

func TestE14Table(t *testing.T) {
	tab := E14AlarmApp(Options{Quick: true})
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6 fire sizes", tab.NumRows())
	}
	out := tab.String()
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Errorf("sweep should include raised and unraised rows:\n%s", out)
	}
}

func TestAblationTables(t *testing.T) {
	a1 := A1MappingAblation(Options{Quick: true})
	if a1.NumRows() == 0 {
		t.Fatal("A1 empty")
	}
	a2 := A2FieldShapes(Options{Quick: true})
	if a2.NumRows() != 5 {
		t.Fatalf("A2 rows = %d, want 5 workloads", a2.NumRows())
	}
}

func TestA3Table(t *testing.T) {
	tab := A3CostSensitivity(Options{Quick: true})
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5 profiles", tab.NumRows())
	}
	if strings.Contains(tab.String(), "central\n") {
		t.Errorf("D&C should win under every profile at this size:\n%s", tab.String())
	}
}

func TestE15Table(t *testing.T) {
	tab := E15Lifetime(Options{Quick: true})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.NumRows())
	}
}

func TestE16Table(t *testing.T) {
	tab := E16WholeApp(Options{Quick: true})
	if tab.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 in quick mode", tab.NumRows())
	}
	if strings.Contains(tab.String(), "false") {
		t.Errorf("physical and virtual runs must agree:\n%s", tab.String())
	}
}

// TestE22Table pins the hazard scaling sweep's correctness column: every
// (hazard, shards, workers) cell must reproduce its scenario oracle's
// checksum, and the hazard machinery must actually bite (lossy scenarios
// drop packets, the crash+deplete scenario kills nodes).
func TestE22Table(t *testing.T) {
	tab := E22HazardScaling(Options{Quick: true})
	if tab.NumRows() != 6 { // 1 grid x 3 hazard scenarios x 2 configs
		t.Fatalf("rows = %d, want 6", tab.NumRows())
	}
	out := tab.String()
	if strings.Contains(out, "false") {
		t.Errorf("a sharded hazard run diverged from its oracle:\n%s", out)
	}
	for _, hazard := range []string{"bernoulli", "burst", "crash+deplete"} {
		if !strings.Contains(out, hazard) {
			t.Errorf("scenario %q missing:\n%s", hazard, out)
		}
	}
}

// TestE26Table pins the deployment-scaling sweep's correctness column:
// every parallel build must deep-equal its sequential twin (the wall
// columns are process measurements and are not asserted).
func TestE26Table(t *testing.T) {
	tab := E26DeployGeneration(Options{Quick: true})
	if tab.NumRows() != 5 { // 2 build tiers x 2 modes + 1 gen tier
		t.Fatalf("rows = %d, want 5", tab.NumRows())
	}
	if out := tab.String(); strings.Contains(out, "false") {
		t.Errorf("a parallel deployment diverged from its sequential twin:\n%s", out)
	}
}
