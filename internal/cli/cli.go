// Package cli implements the logic of every command-line tool in cmd/ as
// testable Run functions: each takes an argument vector and output writers
// and returns a process exit code. The main packages are one-line wrappers,
// so the complete CLI surface is covered by unit tests.
package cli

import (
	"fmt"
	"io"

	"stef/internal/frostt"
	"stef/internal/tensor"
)

// loadTensor resolves the shared -file/-tensor flag pair.
func loadTensor(file, name string) (*tensor.Tensor, error) {
	switch {
	case file != "" && name != "":
		return nil, fmt.Errorf("specify only one of -file and -tensor")
	case file != "":
		return frostt.ReadFile(file, nil)
	case name != "":
		p, err := tensor.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		return p.Generate(), nil
	default:
		return nil, fmt.Errorf("specify -file or -tensor (or -list)")
	}
}

// listProfiles prints the benchmark profile names.
func listProfiles(w io.Writer) {
	for _, n := range tensor.ProfileNames() {
		fmt.Fprintln(w, n)
	}
}

// fail prints a prefixed error and returns exit code 1.
func fail(stderr io.Writer, tool string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 1
}

// usage prints a prefixed flag error and returns exit code 2, the code
// of a flag the flag package rejects.
func usage(stderr io.Writer, tool string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 2
}
