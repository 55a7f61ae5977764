package stef_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"stef"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// engineCase is one fuzz input decoded: a small COO tensor and the solve
// configuration every engine runs it at.
type engineCase struct {
	tt      *tensor.Tensor
	rank    int
	threads int
	// maxPriv bounds per-thread output privatization (0 = engine
	// default; 1 sends every stef and stef2 level at T > 1 to the hybrid
	// strategy and the baselines' buffers to the shared CAS path).
	maxPriv int64
}

func (c engineCase) String() string {
	return fmt.Sprintf("dims=%v nnz=%d R=%d T=%d maxPriv=%d", c.tt.Dims, c.tt.NNZ(), c.rank, c.threads, c.maxPriv)
}

// decodeEngineCase turns fuzz bytes into a case: the order (2–7), the mode
// lengths (1–8, so length-1 modes are common), the rank (1–70, so every
// column block of the fiber kernels occurs, two 32-column blocks
// included, and every remainder mod 4), the thread count (1–3), the
// privatization bound, then up to 300 non-zeros, one coordinate byte per
// mode and one value byte each. Small modes make repeated coordinates
// common, and a zero value byte is a zero value.
//
// The bound is 1 when bit 2 of p[2] is set, and also when p[2]%4 is 2 or
// 3: committed corpus inputs with those two codes forced the hybrid or
// atomic strategy, and maxPriv = 1 still sends them at T > 1 to a CAS
// path, the planned hybrid strategy.
func decodeEngineCase(data []byte) (engineCase, bool) {
	if len(data) < 6 {
		return engineCase{}, false
	}
	d := 2 + int(data[0])%6
	if len(data) < 1+d+4 {
		return engineCase{}, false
	}
	dims := make([]int, d)
	for m := range dims {
		dims[m] = 1 + int(data[1+m])%8
	}
	p := data[1+d:]
	c := engineCase{
		rank:    1 + int(p[0])%70,
		threads: 1 + int(p[1])%3,
	}
	if p[2]%4 >= 2 || p[2]&4 != 0 {
		c.maxPriv = 1
	}
	nnz := min(int(p[3])*300/255, (len(p)-4)/(d+1))
	p = p[4:]
	c.tt = tensor.New(dims, nnz)
	coord := make([]int32, d)
	for k := 0; k < nnz; k++ {
		rec := p[k*(d+1) : (k+1)*(d+1)]
		for m := range coord {
			coord[m] = int32(int(rec[m]) % dims[m])
		}
		val := 0.0
		if b := rec[d]; b != 0 {
			val = float64(int(b)-128) / 16
		}
		c.tt.Append(coord, val)
	}
	return c, true
}

// fuzzEngines are the engines FuzzEngines holds to the reference.
var fuzzEngines = []string{"stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"}

// FuzzEngines is the differential fuzzer over every engine: for each
// decoded input, every engine's MTTKRP of every mode must match
// kernels.Reference within 1e-9 relative, and a 3-iteration solve must
// return finite fits and factors or a typed error, never panic. stef and
// stef2 must refuse an order-2 tensor with an error. The seed corpus is
// testdata/fuzz/FuzzEngines; run it longer with
//
//	go test -run '^$' -fuzz '^FuzzEngines$' -fuzztime 10s .
func FuzzEngines(f *testing.F) {
	f.Add([]byte{1, 3, 4, 5, 15, 1, 0, 40, 1, 2, 3, 64, 3, 2, 1, 200, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeEngineCase(data)
		if !ok {
			return
		}
		for _, engine := range fuzzEngines {
			checkEngineCase(t, c, engine)
		}
	})
}

// checkEngineCase runs one engine on one case, turning a panic into a
// failure that names both.
func checkEngineCase(t *testing.T, c engineCase, engine string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s on %v: panic: %v", engine, c, r)
		}
	}()
	opts := stef.Options{Rank: c.rank, MaxIters: 3, Tol: -1, Threads: c.threads, Engine: engine, Seed: 5, MaxPrivElems: c.maxPriv}
	if engine == "stef" || engine == "stef2" {
		if c.tt.Order() == 2 {
			if _, err := stef.Decompose(c.tt, opts); err == nil {
				t.Fatalf("%s on %v: Decompose accepted an order-2 tensor", engine, c)
			}
			return
		}
	}
	eng, err := stef.NewEngine(c.tt, opts)
	if err != nil {
		t.Fatalf("%s on %v: NewEngine: %v", engine, c, err)
	}
	factors := tensor.RandomFactors(c.tt.Dims, c.rank, 6)
	ws := eng.NewWorkspace()
	for pos, m := range eng.UpdateOrder() {
		out := tensor.NewMatrix(c.tt.Dims[m], c.rank)
		eng.Compute(ws, pos, factors, out)
		if e := relDiff(out, kernels.Reference(c.tt, factors, m)); !(e <= 1e-9) {
			t.Fatalf("%s on %v: mode %d MTTKRP relative error %g", engine, c, m, e)
		}
	}
	res, err := stef.Decompose(c.tt, opts)
	if err != nil {
		var nf *stef.NonFiniteError
		if !errors.As(err, &nf) {
			t.Fatalf("%s on %v: Decompose: %v", engine, c, err)
		}
		return
	}
	for i, fit := range res.Fits {
		if math.IsNaN(fit) || math.IsInf(fit, 0) {
			t.Fatalf("%s on %v: iteration %d fit %v", engine, c, i, fit)
		}
	}
	for m, fm := range res.Factors {
		for i, v := range fm.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s on %v: factor %d entry %d is %v", engine, c, m, i, v)
			}
		}
	}
}
