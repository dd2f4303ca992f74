package faas

import (
	"fmt"
	"strings"
	"time"
)

// Cold returns the full cold-start cost of an image on a host-memory
// platform.
func (m ColdStartModel) Cold(img Image) time.Duration {
	return m.Pull(img) + m.StageWeights(img)
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Stack += o.Stack
	b.RemoteRead += o.RemoteRead
	b.RemoteWrite += o.RemoteWrite
	b.Compute += o.Compute
	b.DeviceIO += o.DeviceIO
	b.Driver += o.Driver
	b.ColdStart += o.ColdStart
	b.Notify += o.Notify
}

// writeYAML serializes a mapping back out (deterministic key order).
func writeYAML(sb *strings.Builder, v *YAMLValue, indent int) {
	pad := strings.Repeat("  ", indent)
	for _, k := range v.Keys {
		c := v.Map[k]
		switch {
		case c.IsMap():
			fmt.Fprintf(sb, "%s%s:\n", pad, k)
			writeYAML(sb, c, indent+1)
		case c.List != nil:
			fmt.Fprintf(sb, "%s%s: [%s]\n", pad, k, strings.Join(c.List, ", "))
		default:
			fmt.Fprintf(sb, "%s%s: %s\n", pad, k, c.Scalar)
		}
	}
}

// MarshalYAML renders a parsed tree back to text.
func MarshalYAML(v *YAMLValue) string {
	var sb strings.Builder
	writeYAML(&sb, v, 0)
	return sb.String()
}
