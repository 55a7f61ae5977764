// Package frostt reads and writes sparse tensors in the FROSTT .tns text
// format: one non-zero per line, d whitespace-separated 1-based coordinates
// followed by a value. Lines starting with '#' and blank lines are ignored.
//
// Read parses each plain ASCII data line in one pass: the coordinates in
// place, and the value through an exact decimal fast path (Clinger's exact
// case, then Eisel–Lemire). Any other line goes through strings.Fields and
// strconv, so Read accepts and rejects what a line-at-a-time strconv parser
// does, with the same tensors and error texts.
package frostt

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"stef/internal/par"
	"stef/internal/tensor"
)

// blockSize is the length of text cut into one parse block. A block ends
// after the last newline it holds, and grows past blockSize only to finish
// a line longer than itself.
const blockSize = 1 << 20

// maxLine is the longest accepted line, in bytes without its newline.
const maxLine = 1<<22 - 1

// errTooLong reports a line longer than maxLine. It keeps the text the
// parser gave when it read lines through a bufio.Scanner with that limit.
var errTooLong = fmt.Errorf("frostt: scan: %w", bufio.ErrTooLong)

// Read parses a .tns stream. The tensor order is inferred from the first
// data line; mode lengths are the maxima of the observed coordinates unless
// dims is non-nil, in which case dims is used and validated.
//
// The stream is cut into newline-aligned blocks of about blockSize bytes,
// and runtime.GOMAXPROCS(0) blocks at a time are parsed in parallel, each
// into its own output. The outputs are appended in file order, so the
// tensor does not depend on the thread count, and an error names its line
// in the whole stream.
func Read(r io.Reader, dims []int) (*tensor.Tensor, error) {
	return read(r, dims, blockSize)
}

// read is Read with the block length as a parameter, so that tests can
// cut small inputs into many blocks.
func read(r io.Reader, dims []int, size int) (*tensor.Tensor, error) {
	c := cutter{r: r, size: size, line: 1}
	blocks := make([]block, runtime.GOMAXPROCS(0))
	var (
		order  int
		maxes  []int32
		chunks []block // every block's output, in file order
		nnz    int
	)
	for more := true; more; {
		n := 0
		var cutErr error
		for n < len(blocks) {
			ok, err := c.next(&blocks[n])
			if !ok {
				more, cutErr = false, err
				break
			}
			n++
		}
		batch := blocks[:n]
		if order == 0 {
			var err error
			if order, err = firstOrder(batch); err != nil {
				return nil, err
			}
			maxes = make([]int32, order)
		}
		if order > 0 && n > 0 {
			par.Do(n, func(th int) { batch[th].parse(order) })
			for i := range batch {
				b := &batch[i]
				if b.err != nil {
					return nil, b.err
				}
				for m, x := range b.maxes {
					maxes[m] = max(maxes[m], x)
				}
				chunks = append(chunks, block{inds: b.inds, vals: b.vals})
				nnz += len(b.vals)
			}
		}
		if cutErr != nil {
			return nil, cutErr
		}
	}
	if c.err != nil {
		return nil, fmt.Errorf("frostt: scan: %w", c.err)
	}
	if order == 0 {
		return nil, fmt.Errorf("frostt: empty input")
	}
	if dims == nil {
		dims = make([]int, order)
		for m := range dims {
			dims[m] = int(maxes[m]) + 1
		}
	} else if len(dims) != order {
		return nil, fmt.Errorf("frostt: provided dims order %d does not match data order %d", len(dims), order)
	} else {
		for m := range dims {
			if int(maxes[m]) >= dims[m] {
				return nil, fmt.Errorf("frostt: coordinate %d exceeds provided mode-%d length %d", maxes[m]+1, m, dims[m])
			}
		}
	}
	// One copy into exactly sized storage, instead of growing it batch by
	// batch.
	t := &tensor.Tensor{Dims: dims, Inds: make([]int32, 0, nnz*order), Vals: make([]float64, 0, nnz)}
	for _, b := range chunks {
		t.Inds = append(t.Inds, b.inds...)
		t.Vals = append(t.Vals, b.vals...)
	}
	return t, nil
}

// maxEmptyReads is how many reads in a row may return neither data nor an
// error before the reader is given up as stuck.
const maxEmptyReads = 100

// cutter cuts a stream into blocks of whole lines.
type cutter struct {
	r     io.Reader
	size  int    // block length
	carry []byte // the start of the line the last block cut through
	line  int    // number of the next block's first line
	eof   bool   // r has nothing more to give
	err   error  // why r stopped, if not io.EOF; reported after the text before it
}

// next fills b.text with the carry and up to size more bytes of the
// stream, cut after the last newline; at the end of the stream it takes
// everything left. It reports false when no text is left, with an error
// if a line outgrew maxLine before its newline.
func (c *cutter) next(b *block) (bool, error) {
	if cap(b.text) < c.size {
		b.text = make([]byte, 0, c.size)
	}
	buf := append(b.text[:0], c.carry...)
	for {
		for empty := 0; len(buf) < cap(buf) && !c.eof; {
			n, err := c.r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			switch {
			case err == io.EOF:
				c.eof = true
			case err != nil:
				c.eof, c.err = true, err
			case n == 0:
				if empty++; empty == maxEmptyReads {
					c.eof, c.err = true, io.ErrNoProgress
				}
			default:
				empty = 0
			}
		}
		if c.eof {
			c.carry = nil
			break
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			buf, c.carry = buf[:i+1], buf[i+1:]
			break
		}
		if len(buf) > maxLine {
			return false, errTooLong
		}
		buf = slices.Grow(buf, len(buf)) // the line goes on past the buffer
	}
	b.text = buf
	if len(buf) == 0 {
		return false, nil
	}
	b.line = c.line
	b.newlines = bytes.Count(buf, []byte{'\n'})
	c.line += b.newlines
	return true, nil
}

// block is one cut of the stream and what parsing it produced.
type block struct {
	text     []byte // whole lines; the last lacks its newline at the end of the stream
	line     int    // number of text's first line in the whole stream
	newlines int    // newlines in text
	inds     []int32
	vals     []float64
	maxes    []int32
	err      error
}

// cutLine splits the first line, without its newline, off text.
func cutLine(text []byte) (ln, rest []byte) {
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, nil
}

// firstOrder returns the tensor order set by the first data line among the
// batch's blocks, or 0 if they hold none. It counts fields on the general
// path.
func firstOrder(batch []block) (int, error) {
	for i := range batch {
		b := &batch[i]
		for line, text := b.line, b.text; len(text) > 0; line++ {
			var ln []byte
			ln, text = cutLine(text)
			toks, err := lineFields(ln)
			if err != nil {
				return 0, err
			}
			if len(toks) == 0 {
				continue
			}
			if len(toks) < 2 {
				return 0, fmt.Errorf("frostt: line %d: need at least one coordinate and a value", line)
			}
			return len(toks) - 1, nil
		}
	}
	return 0, nil
}

// parse parses every line of b.text into new b.inds and b.vals and into
// b.maxes, stopping at the first bad line with b.err set. The scanner takes
// the common lines; it leaves the others to parseLine.
func (b *block) parse(order int) {
	lines := b.newlines + 1
	inds := make([]int32, 0, lines*order)
	vals := make([]float64, 0, lines)
	if cap(b.maxes) < order {
		b.maxes = make([]int32, order)
	}
	maxes := b.maxes[:order]
	clear(maxes)
	b.maxes = maxes
	b.err = nil
	for line, text := b.line, b.text; len(text) > 0; line++ {
		k := len(inds)
		var n int
		if inds, vals, n = scanLine(text, order, inds, vals, maxes); n > 0 {
			text = text[n:]
			continue
		}
		var ln []byte
		ln, text = cutLine(text)
		if inds, vals, b.err = parseLine(ln, line, order, inds[:k], vals, maxes); b.err != nil {
			return
		}
	}
	b.inds, b.vals = inds, vals
}

// isSep reports whether c separates fields on the scanner's lines. All
// three are white space to strings.Fields as well.
func isSep(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// skipSeps returns the index of the first byte at or after i in text that
// is not a separator.
func skipSeps(text []byte, i int) int {
	for i < len(text) && isSep(text[i]) {
		i++
	}
	return i
}

// scanLine parses the line at the start of text in one pass, without a
// token slice: a data line of order coordinates and a value between
// spaces, tabs and carriage returns, or a blank or comment line. It appends
// a data line's coordinates to inds and its value to vals, raises maxes to
// the coordinates, and returns the line's length with its newline.
//
// A coordinate is 1 to 10 digits naming 1 to MaxInt32, and the value is
// one parseValue takes; a comment starts with '#'. For any other line it
// returns length 0, leaving the line to parseLine: one holding another
// byte (non-ASCII, '\v', '\f'), a sign on a coordinate, a value parseValue
// leaves to strconv, a line longer than maxLine, or a bad line. Such a line
// may leave some of its coordinates on inds and in maxes; the caller drops
// them from inds, and parseLine either reads the same coordinates again or
// fails.
func scanLine(text []byte, order int, inds []int32, vals []float64, maxes []int32) ([]int32, []float64, int) {
	i := skipSeps(text, 0)
	if i == len(text) || text[i] == '\n' || text[i] == '#' {
		end := len(text)
		if j := bytes.IndexByte(text[i:], '\n'); j >= 0 {
			end = i + j
		}
		if end > maxLine {
			return inds, vals, 0
		}
		return inds, vals, min(end+1, len(text))
	}
	for m := range order {
		c, j := int64(0), i
		for ; j < len(text) && j-i < 10 && isDigit(text[j]); j++ {
			c = c*10 + int64(text[j]-'0')
		}
		if c == 0 || c > math.MaxInt32 || j == len(text) || !isSep(text[j]) {
			return inds, vals, 0
		}
		ci := int32(c - 1)
		maxes[m] = max(maxes[m], ci)
		inds = append(inds, ci)
		i = skipSeps(text, j)
	}
	v, n, ok := parseValue(text[i:])
	if !ok {
		return inds, vals, 0
	}
	i = skipSeps(text, i+n)
	if i < len(text) && text[i] != '\n' || i > maxLine {
		return inds, vals, 0
	}
	return inds, append(vals, v), min(i+1, len(text))
}

// parseLine parses one line on the general path, as the line-at-a-time
// parser Read replaced did: strings.Fields, strconv.ParseInt and
// strconv.ParseFloat. It appends the non-zero the line holds, if any.
func parseLine(ln []byte, line, order int, inds []int32, vals []float64, maxes []int32) ([]int32, []float64, error) {
	toks, err := lineFields(ln)
	if err != nil || len(toks) == 0 {
		return inds, vals, err
	}
	if len(toks) != order+1 {
		return inds, vals, fmt.Errorf("frostt: line %d: got %d fields, want %d", line, len(toks), order+1)
	}
	for m, tok := range toks[:order] {
		c, err := strconv.ParseInt(tok, 10, 32)
		if err != nil {
			return inds, vals, fmt.Errorf("frostt: line %d: bad coordinate %q: %v", line, tok, err)
		}
		if c < 1 {
			return inds, vals, fmt.Errorf("frostt: line %d: coordinate %d is not 1-based", line, c)
		}
		ci := int32(c - 1)
		maxes[m] = max(maxes[m], ci)
		inds = append(inds, ci)
	}
	v, err := strconv.ParseFloat(toks[order], 64)
	if err != nil {
		return inds, vals, fmt.Errorf("frostt: line %d: bad value %q: %v", line, toks[order], err)
	}
	return inds, append(vals, v), nil
}

// lineFields splits a line as strings.Fields(strings.TrimSpace) splits
// it, and returns no fields for a blank or comment line.
func lineFields(ln []byte) ([]string, error) {
	if len(ln) > maxLine {
		return nil, errTooLong
	}
	text := strings.TrimSpace(string(ln))
	if text == "" || strings.HasPrefix(text, "#") {
		return nil, nil
	}
	return strings.Fields(text), nil
}

// ReadFile reads a .tns file from disk; files ending in ".gz" (the format
// FROSTT distributes) are transparently decompressed. See Read.
func ReadFile(path string, dims []int) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return nil, fmt.Errorf("frostt: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return Read(r, dims)
}

// Write emits the tensor in .tns format with 1-based coordinates.
func Write(w io.Writer, t *tensor.Tensor) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	d := t.Order()
	nnz := t.NNZ()
	for k := 0; k < nnz; k++ {
		c := t.Coord(k)
		for m := 0; m < d; m++ {
			if _, err := fmt.Fprintf(bw, "%d ", int64(c[m])+1); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%g\n", t.Vals[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the tensor to path in .tns format, gzip-compressed when
// path ends in ".gz".
func WriteFile(path string, t *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := Write(w, t); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
