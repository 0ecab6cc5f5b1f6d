package circuit

// ZeroedBy returns, by gate id, the gates of p whose value is 0 in every
// semiring whenever the inputs fixed reports are 0, or nil when fixed reports
// none.  It needs only the laws 0·a = 0 and 0 + 0 = 0, so one pass in gate-id
// (topological) order marks
//
//   - an input fixed reports;
//   - a product with a marked child;
//   - a sum with at least one child, all of them marked;
//   - a permanent with a row whose wired entries are all marked: every term
//     of the permanent takes one entry of that row, and an unwired entry is 0.
//
// The permanent rule is conservative: a permanent whose rows each keep an
// unmarked entry but admit no matching of them is 0 too, and stays unmarked.
//
// A point query's closure raises its parameter weights only inside a read's
// private overlay, so in a session's live state they are 0 forever, and so is
// every gate this marks (NewDynamicPruned).
func (p *Program) ZeroedBy(fixed func(in Input) bool) []bool {
	var zero []bool
	for id := 0; id < p.numGates; id++ {
		kind := Kind(p.kind[id])
		if zero == nil {
			// Nothing is marked before the first fixed input.
			if kind == KindInput && fixed(p.input(id)) {
				zero = make([]bool, p.numGates)
				zero[id] = true
			}
			continue
		}
		kids := p.children[p.childStart[id]:p.childStart[id+1]]
		switch kind {
		case KindInput:
			zero[id] = fixed(p.input(id))
		case KindMul:
			for _, ch := range kids {
				if zero[ch] {
					zero[id] = true
					break
				}
			}
		case KindAdd:
			zero[id] = len(kids) > 0
			for _, ch := range kids {
				if !zero[ch] {
					zero[id] = false
					break
				}
			}
		case KindPerm:
			// A permanent has at most a dozen rows: live is a row mask.
			pm := p.perms[p.arg[id]]
			var live uint64
			for i, ch := range kids {
				if !zero[ch] {
					live |= 1 << p.permRows[pm.entOff+int32(i)]
				}
			}
			zero[id] = pm.rows > 0 && live != 1<<pm.rows-1
		}
	}
	return zero
}
