package scale

// SurgeFlips counts surge-latch toggles — the no-flapping tests pin it.
func (a *Autoscaler) SurgeFlips() int64 {
	a.readMu.Lock()
	defer a.readMu.Unlock()
	return a.surge.Flips()
}
