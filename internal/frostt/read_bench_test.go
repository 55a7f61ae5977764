package frostt

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"stef/internal/tensor"
)

// BenchmarkRead times Read over the .tns text of the kernel-heavy and
// dense-heavy benchmark inputs (bench/workloads.go), generated from their
// profiles and written to memory first, at GOMAXPROCS 1 and 2. It reports
// the parse rate in MB/s of text.
//
//	go test -run '^$' -bench Read ./internal/frostt/
func BenchmarkRead(b *testing.B) {
	for _, w := range []struct {
		name, profile string
		scale         int
	}{
		{"kernel-heavy", "chicago-crime-geo", 4},
		{"dense-heavy", "delicious-3d", 1},
	} {
		p, err := tensor.ProfileByName(w.profile)
		if err != nil {
			b.Fatal(err)
		}
		p.NNZ *= w.scale
		var buf bytes.Buffer
		if err := Write(&buf, p.Generate()); err != nil {
			b.Fatal(err)
		}
		text := buf.Bytes()
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs-%d", w.name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.SetBytes(int64(len(text)))
				for i := 0; i < b.N; i++ {
					if _, err := Read(bytes.NewReader(text), nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
