package rel

import "testing"

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Backend{
		"compiled": Compiled,
		"interp":   Interpreted,
		"bulk":     BulkCompiled,
	} {
		if b, err := ParseEngine(name); err != nil || b != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, b, err, want)
		}
	}
	// The element-order engine and the modifier spelling it once had are
	// gone; those and anything else are rejected.
	for _, name := range []string{"", "Compiled", "compiled-interp", "interp-no-specialize", "fused"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) accepted", name)
		}
	}
}

func TestParseSize(t *testing.T) {
	for s, want := range map[string]int64{
		"": 0, "512": 512, "1k": 1 << 10, "64m": 64 << 20, "64M": 64 << 20, "2g": 2 << 30, " 3 k": 3 << 10,
	} {
		if got, err := ParseSize(s); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"k", "0", "-1m", "1t", "1.5g", "m1", "1\u212a"} {
		if got, err := ParseSize(s); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", s, got)
		}
	}
}
