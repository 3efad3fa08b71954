package rel

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseEngine maps the value of voodoo-run's -engine flag to its backend:
// "compiled" runs every fragment's batch program in tiles, "interp" is the
// reference interpreter (no plan at all) and "bulk" the compiler with
// fusion off.
func ParseEngine(name string) (Backend, error) {
	switch name {
	case "compiled":
		return Compiled, nil
	case "interp":
		return Interpreted, nil
	case "bulk":
		return BulkCompiled, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want compiled, interp or bulk)", name)
}

// ParseSize parses the CLIs' -max-mem and -max-heap values: a byte count
// with an optional k/m/g suffix (powers of 1024) — "512", "64m", "1g" — or
// the empty string, which is 0 (no limit).
func ParseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	if i := strings.IndexByte("kKmMgG", s[len(s)-1]); i >= 0 {
		num, mult = s[:len(s)-1], 1<<(10*(i/2+1))
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 512, 64m, 1g)", s)
	}
	return n * mult, nil
}
