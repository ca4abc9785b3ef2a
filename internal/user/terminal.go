package user

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"innsearch/internal/core"
	"innsearch/internal/grid"
	"innsearch/internal/kde"
	"innsearch/internal/viz"
)

// Terminal is the real human interface: it renders each visual profile as
// an ASCII density map on Out and runs the paper's AdjustDensitySeparator
// loop (Figure 6) over In. Commands at the prompt:
//
//	<fraction>        move the separator to fraction × query density
//	a (or empty)      accept the current separator
//	s                 skip this view
//	h                 show 1-D marginal density sketches
//	l x1,y1,x2,y2     add a separating line (polygonal selection)
//	c                 clear the separating lines
//
// When separating lines are present, accepting answers with the polygonal
// region instead of the density separator.
type Terminal struct {
	In  io.Reader
	Out io.Writer
	// Width, Height are the ASCII canvas size (defaults 72×26).
	Width, Height int

	scanner *bufio.Scanner
}

// SeparateCluster implements core.User.
func (t *Terminal) SeparateCluster(p *core.VisualProfile, preview func(tau float64) *grid.Region) core.Decision {
	if t.scanner == nil {
		t.scanner = bufio.NewScanner(t.In)
	}
	fmt.Fprintf(t.Out, "\n--- major %d, minor %d: query-centered projection (discrimination %.2f, query/peak %.2f) ---\n",
		p.Major, p.Minor, p.Discrimination, p.PeakRatio())

	frac := 0.5
	var lines []grid.Line
	for {
		tau := frac * p.QueryDensity
		t.render(p, tau)
		if len(lines) > 0 {
			if sel, err := p.SelectLines(lines); err == nil {
				fmt.Fprintf(t.Out, "%d separating line(s): polygonal region holds %d of %d points\n",
					len(lines), len(sel), p.Points.Rows)
			}
		} else if reg := preview(tau); reg != nil {
			fmt.Fprintf(t.Out, "separator at %.2f × query density selects %d of %d points\n",
				frac, reg.CountSource(kde.MatrixXY{M: p.Points}), p.Points.Rows)
		}
		fmt.Fprint(t.Out, "τ fraction (0..1), 'a' accept, 's' skip, 'h' marginals, 'l x1,y1,x2,y2' add line, 'c' clear lines > ")
		if !t.scanner.Scan() {
			return core.Decision{Skip: true} // EOF: treat as skip
		}
		line := strings.TrimSpace(t.scanner.Text())
		switch {
		case line == "a" || line == "":
			if len(lines) > 0 {
				return core.Decision{Lines: lines, Confidence: 0.5}
			}
			return core.Decision{Tau: tau, Confidence: 0.5}
		case line == "s":
			return core.Decision{Skip: true}
		case line == "h":
			t.marginals(p)
		case line == "c":
			lines = nil
		case strings.HasPrefix(line, "l "):
			l, err := parseLine(strings.TrimPrefix(line, "l "))
			if err != nil {
				fmt.Fprintln(t.Out, err)
				continue
			}
			lines = append(lines, l)
		default:
			v, err := strconv.ParseFloat(line, 64)
			if err != nil || v <= 0 || v >= 1 {
				fmt.Fprintln(t.Out, "enter a fraction in (0,1), or one of a/s/h/l/c")
				continue
			}
			frac = v
		}
	}
}

// parseLine reads "x1,y1,x2,y2" into a separating line.
func parseLine(spec string) (grid.Line, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return grid.Line{}, fmt.Errorf("expected x1,y1,x2,y2, got %q", spec)
	}
	vals := make([]float64, 4)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return grid.Line{}, fmt.Errorf("bad coordinate %q", part)
		}
		vals[i] = v
	}
	return grid.Line{X1: vals[0], Y1: vals[1], X2: vals[2], Y2: vals[3]}, nil
}

// marginals prints 1-D density sketches of the two projected coordinates.
func (t *Terminal) marginals(p *core.VisualProfile) {
	for axis, name := range []string{"x", "y"} {
		g, err := kde.Estimate1D(p.Points.Col(axis), 60, 0)
		if err != nil {
			fmt.Fprintf(t.Out, "marginal %s: %v\n", name, err)
			continue
		}
		peak := g.MaxDensity()
		fmt.Fprintf(t.Out, "%s marginal [%.3g, %.3g]: ", name, g.Min, g.Max)
		ramp := " .:-=+*#%@"
		for i := 0; i < g.P; i++ {
			idx := 0
			if peak > 0 {
				idx = int(g.Density[i] / peak * float64(len(ramp)))
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			fmt.Fprintf(t.Out, "%c", ramp[idx])
		}
		fmt.Fprintln(t.Out)
	}
}

func (t *Terminal) render(p *core.VisualProfile, tau float64) {
	w, h := t.Width, t.Height
	if w == 0 {
		w = 72
	}
	if h == 0 {
		h = 26
	}
	ascii, err := viz.ASCIIHeatmap(p.Grid, viz.ASCIIOptions{
		Width: w, Height: h,
		MarkQuery: true, QueryX: p.QueryX, QueryY: p.QueryY,
		Tau: tau, ShowScale: true,
	})
	if err != nil {
		fmt.Fprintf(t.Out, "render error: %v\n", err)
		return
	}
	fmt.Fprint(t.Out, ascii)
}
