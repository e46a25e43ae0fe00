package viz

import (
	"fmt"
	"math"
	"strings"
)

// Chart renders x/y series as a compact ASCII plot — enough to eyeball the
// latency-vs-traffic curves of Figs. 3-5 in a terminal. Each series gets a
// letter mark; points beyond the y-clip (saturated runs) draw as '^' on the
// top row.
type Chart struct {
	xs     []float64
	series []chartSeries
}

const (
	colWidth = 6  // columns per x point
	rows     = 14 // plot rows
)

type chartSeries struct {
	name string
	ys   []float64 // NaN = missing; +Inf = saturated
}

// NewChart creates a chart over the given x grid, 6 columns per x point
// and 14 rows high.
func NewChart(xs []float64) *Chart { return &Chart{xs: xs} }

// Add appends a series. ys must align with the x grid; use math.NaN for
// missing points and math.Inf(1) for saturated ones.
func (c *Chart) Add(name string, ys []float64) {
	if len(ys) != len(c.xs) {
		panic(fmt.Sprintf("viz: series %q has %d points, chart has %d", name, len(ys), len(c.xs)))
	}
	c.series = append(c.series, chartSeries{name: name, ys: ys})
}

// Render draws the chart with a y-axis scale and a legend.
func (c *Chart) Render() string {
	// y range over finite values.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for _, y := range s.ys {
			if !math.IsNaN(y) && !math.IsInf(y, 0) {
				lo = math.Min(lo, y)
				hi = math.Max(hi, y)
			}
		}
	}
	if math.IsInf(lo, 1) { // nothing finite
		lo, hi = 0, 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	cols := len(c.xs) * colWidth
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	mark := func(i int) byte { return byte('a' + i%26) }
	for si, s := range c.series {
		for xi, y := range s.ys {
			col := xi*colWidth + colWidth/2
			switch {
			case math.IsNaN(y):
				continue
			case math.IsInf(y, 1):
				grid[0][col] = '^'
			default:
				frac := (y - lo) / (hi - lo)
				row := int(math.Round(float64(rows-1) * (1 - frac)))
				if row < 0 {
					row = 0
				}
				if row >= rows {
					row = rows - 1
				}
				if grid[row][col] == ' ' || grid[row][col] == '^' {
					grid[row][col] = mark(si)
				} else {
					grid[row][col] = '*' // collision
				}
			}
		}
	}
	var b strings.Builder
	for r := 0; r < rows; r++ {
		yVal := hi - (hi-lo)*float64(r)/float64(rows-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", yVal, string(grid[r]))
	}
	b.WriteString(strings.Repeat(" ", 9) + "+" + strings.Repeat("-", cols) + "\n")
	// x labels: first, middle, last.
	lbl := make([]byte, cols+10)
	for i := range lbl {
		lbl[i] = ' '
	}
	place := func(xi int) {
		s := trimFloat(c.xs[xi])
		at := 10 + xi*colWidth
		copy(lbl[min(at, len(lbl)-len(s)):], s)
	}
	place(0)
	if len(c.xs) > 2 {
		place(len(c.xs) / 2)
	}
	place(len(c.xs) - 1)
	b.WriteString(strings.TrimRight(string(lbl), " ") + "\n")
	// Legend in series insertion order.
	names := make([]string, len(c.series))
	for i, s := range c.series {
		names[i] = fmt.Sprintf("%c=%s", mark(i), s.name)
	}
	b.WriteString("legend: " + strings.Join(names, "  ") + "  (^ = saturated)\n")
	return b.String()
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}
