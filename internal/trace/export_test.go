package trace

import "strings"

// FormatWorkflowSpec renders a spec back into the ParseWorkflowSpec
// spelling; Parse(Format(spec)) round-trips any parsed spec.
func FormatWorkflowSpec(spec *WorkflowSpec) string {
	if spec == nil {
		return ""
	}
	parts := make([]string, len(spec.Stages))
	for i, st := range spec.Stages {
		parts[i] = st.String()
	}
	return strings.Join(parts, ";")
}
