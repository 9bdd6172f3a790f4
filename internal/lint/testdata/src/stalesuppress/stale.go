// Package fixture exercises stalesuppress: directives and annotations
// must earn their keep.
package fixture

func mayFail() error { return nil }

// useful suppresses a real finding, so it is not stale.
func useful() {
	mayFail() //sornlint:ignore droppederr -- fixture: suppression that earns its keep
}

// stale names a real rule that produces no finding here.
func stale() int {
	x := 1
	//sornlint:ignore droppederr -- fixture: nothing to suppress (want:stalesuppress)
	return x
}

// unknown names a rule that does not exist.
func unknown() int {
	//sornlint:ignore nosuchrule -- fixture: bogus rule name (want:stalesuppress)
	return 2
}

// emptyIgnore has a directive that names no rules at all.
func emptyIgnore() int {
	//sornlint:ignore -- fixture: directive without rules (want:stalesuppress)
	return 3
}

// badVerb carries an annotation verb that does not exist.
//
//sornlint:frobnicate (want:stalesuppress)
func badVerb() {}

// misapplied carries a declaration-kind mismatch: hotpath marks
// functions, never types.
//
//sornlint:hotpath (want:stalesuppress)
type misapplied struct{}

var local int //sornlint:hotpath (want:stalesuppress)
