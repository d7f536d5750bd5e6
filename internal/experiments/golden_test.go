package experiments

import (
	"testing"

	"repro/internal/synth"
)

// TestGoldenSynthPanel pins the full rendered interactions panel for a
// small seeded workload: every strategy (including seeded RND) is
// deterministic, so any drift in engine, strategies, generator or renderer
// shows up as a diff here.
func TestGoldenSynthPanel(t *testing.T) {
	rows, err := Synth(SynthOptions{
		Config:          synth.Config{AttrsR: 2, AttrsP: 2, Rows: 12, Values: 8},
		Runs:            2,
		Seed:            123,
		MaxGoalsPerSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := RenderInteractions("golden", rows)

	// The panel as this implementation renders it; any drift in engine,
	// strategies, RND's seeding, generator or renderer shows up as a diff.
	const want = "golden — number of interactions\n" +
		"  workload     BU   TD   L1S   L2S   RND\n" +
		"  |θG| = 0      1    2     1   2.5   2.5\n" +
		"  |θG| = 1    3.5  3.5  3.62  3.25  3.38\n" +
		"  |θG| = 2   7.71    4  5.43     4  4.29\n"
	if got != want {
		t.Errorf("panel drifted:\n%s\nwant:\n%s", got, want)
	}
}
