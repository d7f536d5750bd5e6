package experiments

import (
	"fmt"
	"strings"
)

// StrategyOrder is the paper's column order for the per-strategy panels.
var StrategyOrder = []string{"BU", "TD", "L1S", "L2S", "RND"}

// RenderInteractions renders the "number of interactions" panel of a
// figure: one line per workload, one column per strategy.
func RenderInteractions(title string, rows []Row) string {
	return renderPanel(title+" — number of interactions", rows, func(c Cell) string {
		return trimFloat(c.Interactions)
	})
}

// RenderTimes renders the "inference time (seconds)" panel of a figure.
func RenderTimes(title string, rows []Row) string {
	return renderPanel(title+" — inference time (seconds)", rows, func(c Cell) string {
		return fmt.Sprintf("%.4f", c.Seconds)
	})
}

func renderPanel(title string, rows []Row, cell func(Cell) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	cols := presentStrategies(rows)

	widths := make([]int, len(cols)+1)
	widths[0] = len("workload")
	for _, r := range rows {
		if len(r.Workload) > widths[0] {
			widths[0] = len(r.Workload)
		}
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		line := []string{r.Workload}
		for i, name := range cols {
			s := "-"
			if c, ok := r.Cells[name]; ok {
				s = cell(c)
			}
			line = append(line, s)
			if len(s) > widths[i+1] {
				widths[i+1] = len(s)
			}
			if len(name) > widths[i+1] {
				widths[i+1] = len(name)
			}
		}
		table = append(table, line)
	}
	fmt.Fprintf(&b, "  %-*s", widths[0], "workload")
	for i, name := range cols {
		fmt.Fprintf(&b, "  %*s", widths[i+1], name)
	}
	b.WriteByte('\n')
	for _, line := range table {
		fmt.Fprintf(&b, "  %-*s", widths[0], line[0])
		for i, s := range line[1:] {
			fmt.Fprintf(&b, "  %*s", widths[i+1], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTable1 renders the summary the way Table 1 does: instance metadata,
// best strategy by interactions, and the best strategy's time.
func RenderTable1(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — description and summary of all experiments\n")
	header := []string{"dataset", "workload", "|D|", "join ratio", "best (interactions)", "time of best (s)"}
	table := [][]string{header}
	for _, r := range rows {
		name, best := r.Best(StrategyOrder)
		table = append(table, []string{
			r.Dataset,
			r.Workload,
			fmt.Sprintf("%.3g", r.ProductSize),
			fmt.Sprintf("%.3f", r.JoinRatio),
			fmt.Sprintf("%s (%s int.)", name, trimFloat(best.Interactions)),
			fmt.Sprintf("%.4f", best.Seconds),
		})
	}
	widths := make([]int, len(header))
	for _, line := range table {
		for i, s := range line {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for _, line := range table {
		for i, s := range line {
			fmt.Fprintf(&b, "  %-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// presentStrategies returns the strategies present in the rows, in
// StrategyOrder.
func presentStrategies(rows []Row) []string {
	var cols []string
	for _, name := range StrategyOrder {
		for _, r := range rows {
			if _, ok := r.Cells[name]; ok {
				cols = append(cols, name)
				break
			}
		}
	}
	return cols
}

// trimFloat renders 4 as "4" and 4.25 as "4.25".
func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
