package group

// HasTable reports whether exponentiations of p go through a fixed-base
// table: p is the generator or a base registered with Precompute. Always
// false on P-256, whose Precompute is a no-op.
func HasTable(g Group, p *Point) bool {
	m, ok := g.(*modpGroup)
	return ok && p != nil && m.table(p) != nil
}
