package kernelgen

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

func TestGenerateParses(t *testing.T) {
	for d := 3; d <= 6; d++ {
		src, err := Generate(d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
			t.Fatalf("d=%d: generated code does not parse: %v", d, err)
		}
	}
}

func TestGenerateRejectsBadOrder(t *testing.T) {
	for _, d := range []int{2, 9, -1} {
		if _, err := Generate(d); err == nil {
			t.Errorf("order %d accepted", d)
		}
	}
}

// TestCheckedInFilesAreCurrent guards against the generated kernels
// drifting from the generator: regenerating must reproduce the repository
// files byte for byte.
func TestCheckedInFilesAreCurrent(t *testing.T) {
	for _, d := range []int{3, 4, 5} {
		path := "../kernels/modes" + string(rune('0'+d)) + "_gen.go"
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read checked-in file: %v", err)
		}
		got, err := Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s is stale; regenerate with: go generate ./internal/kernels", path)
		}
	}
}

func TestGeneratedKernelShapes(t *testing.T) {
	src, err := Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	// Every valid (u, src) pair must have a kernel: u=1 has 4 sources?
	// For d=4: u=1 src∈{1,2,3}, u=2 src∈{2,3}, u=3 src=3.
	for _, fn := range []string{"mode4u1src1", "mode4u1src2", "mode4u1src3", "mode4u2src2", "mode4u2src3", "mode4u3src3"} {
		if !strings.Contains(s, "func "+fn+"(") {
			t.Errorf("missing kernel %s", fn)
		}
	}
	if strings.Contains(s, "mode4u3src2") {
		t.Error("leaf mode with non-leaf source should not be generated")
	}
}
