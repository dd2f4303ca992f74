package ssd

// Config returns the drive configuration.
func (d *Drive) Config() Config { return d.cfg }
