// Package directives pins the directive parser's failure modes: a
// //dscslint directive that fails to parse must surface as a finding of
// the "dscslint" checker, never a silent pass — a typo in an allow
// silently re-opens the hole it was meant to document.
package directives

// Each malformed directive below carries its expectation in the same
// comment (the harness reads expectation markers embedded in directive
// comments; the parser treats an inner double-slash as end of arguments).

//dscslint: // want `empty dscslint directive`

//dscslint:allow // want `//dscslint:allow needs an analyzer name and a reason`

//dscslint:allow clokcheck sim code must stay deterministic // want `//dscslint:allow names unknown analyzer "clokcheck"`

//dscslint:allow clockcheck // want `//dscslint:allow clockcheck needs a reason`

//dscslint:ignore clockcheck not a verb // want `unknown dscslint directive "ignore"`

// Well-formed directives parse without findings: a scoped allow with a
// reason, an allow naming a suite analyzer other than the one running
// (the canonical list, not the running set, decides), and a hotpath root
// annotation.
func ok() {
	//dscslint:allow clockcheck reviewed wall read for fixture purposes
	_ = 0
	//dscslint:allow deadcheck fixture: the parser must know every analyzer of the suite
	_ = 1
}

//dscslint:hotpath
func hot() {}
