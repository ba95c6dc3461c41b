package obs

import "testing"

// FuzzParseTraceparent drives the W3C traceparent parser with arbitrary
// header values: it must never panic, and any value it accepts must name
// ids that survive a re-render through the canonical 00-…-01 form. The
// checked-in corpus under testdata/fuzz covers a valid header, all-zero
// ids, short fields, non-hex digits and extra trailing fields.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTracer(TracerConfig{Name: "fuzz", Seed: 1}).Root("op").Traceparent())
	f.Fuzz(func(t *testing.T, v string) {
		trace, parent, ok := ParseTraceparent(v)
		if !ok {
			if !trace.IsZero() || !parent.IsZero() {
				t.Fatalf("rejected %q but returned ids %s %s", v, trace, parent)
			}
			return
		}
		canon := "00-" + trace.String() + "-" + parent.String() + "-01"
		t2, p2, ok2 := ParseTraceparent(canon)
		if !ok2 || t2 != trace || p2 != parent {
			t.Fatalf("accepted %q, but its re-render %q parses to %s %s %v", v, canon, t2, p2, ok2)
		}
	})
}
