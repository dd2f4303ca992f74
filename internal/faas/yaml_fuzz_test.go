package faas

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dscs/internal/workload"
)

// yamlLineRE finds the source line a ParseYAML error names.
var yamlLineRE = regexp.MustCompile(`yaml line (\d+)`)

// FuzzParseApplication drives arbitrary deployment files through
// ParseApplication, the decoder behind the gateway's deploy endpoint. It
// must never panic; an accepted file must yield an Application that
// validates; and every YAML syntax error must name a line that exists in
// the source, so an operator can find what the gateway refused. The seeds
// are every Table 1 deployment plus the malformed shapes the subset
// rejects: odd indentation, duplicate keys, an unterminated flow list, a
// stray "-", and a "#" inside a value.
func FuzzParseApplication(f *testing.F) {
	for _, b := range workload.Suite() {
		f.Add(DeploymentYAML(b))
	}
	valid := DeploymentYAML(workload.Suite()[0])
	f.Add(strings.Replace(valid, "  inference:", "   inference:", 1))
	f.Add(valid + "name: twice\n")
	f.Add(strings.Replace(valid, "chain: [preprocess, inference, notify]", "chain: [preprocess, inference", 1))
	f.Add(strings.Replace(valid, "functions:\n", "functions:\n-\n", 1))
	f.Add(strings.Replace(valid, "image: dscs/notify:1.0", "image: dscs/notify#1.0", 1))
	f.Add("name: x\nchain:\n  - f\n  -\nfunctions:\n  f:\n    image: i\n    timeout: 1s\n")
	f.Fuzz(func(t *testing.T, src string) {
		app, err := ParseApplication(src)
		if err == nil {
			if app == nil {
				t.Fatal("nil error with a nil Application")
			}
			if verr := app.Validate(); verr != nil {
				t.Fatalf("accepted Application fails Validate: %v", verr)
			}
		}
		if _, yerr := ParseYAML(src); yerr != nil {
			m := yamlLineRE.FindStringSubmatch(yerr.Error())
			if m == nil {
				t.Fatalf("yaml error names no line: %v", yerr)
			}
			n, _ := strconv.Atoi(m[1])
			if lines := strings.Count(src, "\n") + 1; n < 1 || n > lines {
				t.Fatalf("yaml error names line %d of %d: %v", n, lines, yerr)
			}
			if err == nil || err.Error() != yerr.Error() {
				t.Fatalf("ParseApplication = %v, want the yaml error %v", err, yerr)
			}
		}
	})
}
