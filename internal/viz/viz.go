// Package viz renders HASTE instances and schedules as ASCII art — the
// repository's stand-in for the paper's topology figures (Figs. 2, 20,
// 23): a field map with chargers, devices and orientations.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"haste/internal/geom"
	"haste/internal/model"
)

// FieldMap renders the instance on a character grid of the given width
// (height follows the field's aspect ratio; cells are ~2:1 to compensate
// for character aspect). Chargers print as letters (A, B, …), tasks as
// digits (task ID mod 10). When orientations are given (one per charger,
// NaN = unoriented), each charger also paints its beam direction with an
// arrow character.
func FieldMap(w io.Writer, in *model.Instance, orientations []float64, width int) error {
	if width < 10 {
		width = 10
	}
	minX, minY, maxX, maxY := bounds(in)
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	height := int(float64(width) * spanY / spanX / 2)
	if height < 5 {
		height = 5
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", width))
	}
	place := func(p geom.Point, ch byte) {
		c := int((p.X - minX) / spanX * float64(width-1))
		r := int((maxY - p.Y) / spanY * float64(height-1))
		if r >= 0 && r < height && c >= 0 && c < width {
			grid[r][c] = ch
		}
	}

	for i, c := range in.Chargers {
		if orientations != nil && i < len(orientations) && !math.IsNaN(orientations[i]) {
			// Paint the beam one step along the orientation.
			step := spanX / float64(width) * 2
			place(c.Pos.Add(geom.UnitVec(orientations[i]).Scale(step*2)), arrowFor(orientations[i]))
		}
		place(c.Pos, chargerGlyph(i))
	}
	for _, t := range in.Tasks {
		place(t.Pos, byte('0'+t.ID%10))
	}

	for _, row := range grid {
		if _, err := fmt.Fprintln(w, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "chargers A-%c, tasks by ID mod 10; field [%.1f,%.1f]x[%.1f,%.1f] m\n",
		chargerGlyph(len(in.Chargers)-1), minX, maxX, minY, maxY)
	return err
}

func chargerGlyph(i int) byte {
	if i < 26 {
		return byte('A' + i)
	}
	return '#'
}

// arrowFor picks an eight-direction arrow character for an orientation.
func arrowFor(theta float64) byte {
	dirs := []byte{'>', '/', '^', '\\', '<', '/', 'v', '\\'}
	oct := int(math.Round(geom.NormalizeAngle(theta)/(math.Pi/4))) % 8
	return dirs[oct]
}

func bounds(in *model.Instance) (minX, minY, maxX, maxY float64) {
	first := true
	visit := func(p geom.Point) {
		if first {
			minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
			first = false
			return
		}
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	for _, c := range in.Chargers {
		visit(c.Pos)
	}
	for _, t := range in.Tasks {
		visit(t.Pos)
	}
	return minX, minY, maxX, maxY
}
