package oracle

import "testing"

// FuzzParseSpec checks that ParseSpec never panics and that every spec
// it accepts round-trips: ParseSpec(s.String()) == s, so a printed
// violation line always reproduces its scenario. The seed corpus is the
// fixed CI corpus plus the malformed lines the parser tests reject.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Corpus() {
		f.Add(s.String())
	}
	for _, line := range malformedSpecs {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseSpec(line)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) rejects its own String() of %q: %v", s.String(), line, err)
		}
		if back != s {
			t.Fatalf("round trip of %q changed the spec:\n  in  %v\n  out %v", line, s, back)
		}
	})
}
