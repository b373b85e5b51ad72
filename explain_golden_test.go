package moment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainGolden pins the rendered provenance trail for a fixed problem
// (machine B, PapersArXiv, serial search) byte-for-byte against a committed
// golden file. The trail is the diagnosis surface operators diff across
// deploys — any change to its content or ordering must be deliberate.
// Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestExplainGolden .
func TestExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner run in -short mode")
	}
	render := func() string {
		t.Helper()
		ex := NewExplain()
		_, err := OptimizeWith(MachineB(), Workload{Dataset: MustDataset("PA"), Model: GraphSAGE},
			SearchOptions{Parallelism: 1, Explain: ex})
		if err != nil {
			t.Fatal(err)
		}
		return ex.Render()
	}

	got := render()
	if !strings.Contains(got, "[  sum] result ") {
		t.Fatalf("trail has no result summary:\n%s", got)
	}

	// Determinism first: two fresh runs of the same problem must render
	// identically before a golden comparison means anything.
	if again := render(); again != got {
		t.Fatalf("explain trail not deterministic across runs:\n--- first\n%s\n--- second\n%s", got, again)
	}

	golden := filepath.Join("testdata", "explain_B_PA.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestExplainGolden .)", err)
	}
	if got != string(want) {
		t.Errorf("explain trail drifted from %s.\nIf the change is deliberate, regenerate with "+
			"UPDATE_GOLDEN=1.\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}
