package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunRejectsUnknownIDsBeforeWork: an unknown figure or table is an
// error, returned before any panel runs or prints — "6x" as well as "7x",
// and a bad table next to a good figure.
func TestRunRejectsUnknownIDsBeforeWork(t *testing.T) {
	for _, c := range []struct{ fig, table string }{
		{"6x", ""}, {"6", ""}, {"7x", ""}, {"8a", ""}, {"", "2"}, {"6a", "2"},
	} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		runErr := run(c.fig, c.table, 1, 1, 42, 1, 1)
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		r.Close()
		if runErr == nil || !strings.Contains(runErr.Error(), "unknown") {
			t.Errorf("run(fig %q, table %q) = %v; want an unknown-id error", c.fig, c.table, runErr)
		}
		if len(out) > 0 {
			t.Errorf("run(fig %q, table %q) printed %q before rejecting", c.fig, c.table, out)
		}
	}
}
