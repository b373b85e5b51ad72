package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultsParse: Parse never panics, and whatever it accepts survives a
// Format/Parse round trip unchanged — parse∘format∘parse is a fixed point,
// which momentd's fingerprint (it keys on Format of the parsed schedule)
// relies on.
func FuzzFaultsParse(f *testing.F) {
	for _, seed := range []string{
		"seed=7;kill:ssd2@30;throttle:ssd1@10x0.5+20;downtrain:gpu0:in@5x0.25;straggle:gpu3@0x0.8;errburst:ssd0@2p0.01+1",
		"seed=42;kill:ssd2@30;throttle:ssd1@10x0.5+20",
		"seed=3;kill:ssd2@1.5;throttle:ssd5@0.5x0.4+2;straggle:gpu1@1x0.7+1",
		"boom:ssd0@1", "kill:ssd0", "kill:hdd0@1", "throttle:ssd0@1x2", "kill:ssd0@x",
		"seed=abc", "straggle:gpu@1x0.5", "errburst:ssd0@1p0.5x2junk", " ; ", "",
		// Inputs that once broke the round trip: a factor or a duration on
		// a fail-stop (Format drops both), a start Format writes with an
		// exponent sign, and a start at infinity.
		"kill:ssd0@000x1", "kill:ssd0@1+5", "kill:ssd0@1000000", "throttle:ssd0@1e+30x0.5+1e+30",
		"kill:ssd0@inf", "errburst:ssd0@1x0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		text := Format(s)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its Format %q does not parse: %v", spec, text, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("Parse(%q) = %+v, but Parse(Format) = %+v (via %q)", spec, s, again, text)
		}
		if Format(again) != text {
			t.Fatalf("Format not stable: %q then %q", text, Format(again))
		}
	})
}
