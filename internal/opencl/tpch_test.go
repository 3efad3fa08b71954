package opencl

import (
	"fmt"
	"strings"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
)

// TestTPCHPlansRenderValidOpenCL lowers every evaluated TPC-H query plan
// and checks the generated OpenCL is structurally sound: balanced braces,
// one kernel per fragment, and every referenced buffer declared as a
// parameter of its kernel.
func TestTPCHPlansRenderValidOpenCL(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 42})
	for _, num := range tpch.QueryNumbers {
		num := num
		t.Run(fmt.Sprintf("q%d", num), func(t *testing.T) {
			q, err := tpch.Plan(num, cat)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := rel.Lower(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := compile.Compile(prog, cat, compile.Options{ScatterParallel: true})
			if err != nil {
				t.Fatal(err)
			}
			checkKernelSource(t, Generate(plan.Kernel()), len(plan.Kernel().Frags))
		})
	}
}

func checkKernelSource(t *testing.T, src string, frags int) {
	t.Helper()
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces")
	}
	if nk := strings.Count(src, "__kernel"); nk != frags {
		t.Errorf("%d kernels for %d fragments", nk, frags)
	}
	for _, k := range strings.Split(src, "__kernel")[1:] {
		header, body, ok := strings.Cut(k, ") {")
		if !ok {
			t.Fatal("malformed kernel")
		}
		for i := 0; i+3 < len(body); i++ {
			if strings.HasPrefix(body[i:], "buf") && i > 0 && !isIdentChar(body[i-1]) {
				end := i + 3
				for end < len(body) && body[end] >= '0' && body[end] <= '9' {
					end++
				}
				name := body[i:end]
				if end == i+3 {
					continue // not a numbered buffer reference
				}
				if !strings.Contains(header, name+" ") && !strings.Contains(header, name+"_") {
					t.Fatalf("buffer %s used but not a parameter\nheader:%s", name, header)
				}
				i = end
			}
		}
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
