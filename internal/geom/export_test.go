package geom

// Reach returns the distance the superset guarantee covers: every
// indexed point within Reach() of a query point is among its candidates.
// It equals the reach requested at construction unless the cell budget
// forced larger cells (then it is larger, which only widens candidates).
// The grid tests use it as the oracle of Candidates.
func (g *GridIndex) Reach() float64 { return g.cell }
