package circuit

// LastWave reports the gates that waited in d's last write wave and the
// child slots they were enlisted at.
func (d *Dynamic[T]) LastWave() (gates, wires int) {
	w := &d.o.wave
	for _, slots := range w.lists[:w.last] {
		wires += len(slots)
	}
	return w.last, wires
}
