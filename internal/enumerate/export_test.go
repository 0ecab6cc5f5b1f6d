package enumerate

// Steps reports the nodes c has positioned or advanced so far.
func (c *TupleCursor) Steps() int { return c.w.steps }
