// Command kernelgen emits the unrolled non-root MTTKRP kernels for one
// tensor order:
//
//	go run ./cmd/kernelgen -d 5 > internal/kernels/modes5_gen.go
package main

import (
	"flag"
	"fmt"
	"os"

	"stef/internal/kernelgen"
)

func main() {
	d := flag.Int("d", 5, "tensor order to generate mode kernels for")
	flag.Parse()
	src, err := kernelgen.Generate(*d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelgen:", err)
		os.Exit(2)
	}
	os.Stdout.Write(src)
}
