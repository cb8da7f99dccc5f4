package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary codec for large graphs (millions of nodes). Layout, all
// little-endian:
//
//	magic   [4]byte  "PCG1"
//	flags   uint32   bit 0: labeled
//	n       uint64   node count
//	m       uint64   edge count
//	nodeW   n * float64
//	outStart (n+1) * int64
//	outDst  m * int32
//	outW    m * float64
//	labels  (if labeled) n * (uvarint length + bytes)
//
// The incoming CSR is rebuilt on load; it is cheaper to recompute than to
// double the file size. Arrays are encoded and decoded a buffer's worth at
// a time.

var binaryMagic = [4]byte{'P', 'C', 'G', '1'}

const flagLabeled = 1 << 0

const (
	// binaryHeaderSize is magic, flags, n and m.
	binaryHeaderSize = 4 + 4 + 8 + 8
	// binaryBufSize is the codec's I/O buffer.
	binaryBufSize = 64 << 10
)

// WriteBinary serializes g in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, binaryBufSize)
	var flags uint32
	if g.Labeled() {
		flags |= flagLabeled
	}
	var hdr [binaryHeaderSize]byte
	copy(hdr[:], binaryMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeLE(bw, g.nodeW); err != nil {
		return err
	}
	if err := writeLE(bw, g.outStart); err != nil {
		return err
	}
	if err := writeLE(bw, g.outDst); err != nil {
		return err
	}
	if err := writeLE(bw, g.outW); err != nil {
		return err
	}
	if g.Labeled() {
		var buf [binary.MaxVarintLen64]byte
		for _, label := range g.labels {
			n := binary.PutUvarint(buf[:], uint64(len(label)))
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			if _, err := bw.WriteString(label); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// fixed is the element types of the codec's arrays.
type fixed interface{ int32 | int64 | float64 }

func sizeOf[T fixed]() int {
	var x T
	return binary.Size(x)
}

// writeLE encodes xs little-endian straight into bw's free buffer space.
func writeLE[T fixed](bw *bufio.Writer, xs []T) error {
	size := sizeOf[T]()
	for len(xs) > 0 {
		if bw.Available() < size {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		n := min(len(xs), cap(buf)/size)
		buf = buf[:n*size]
		switch xs := any(xs[:n]).(type) {
		case []int32:
			for i, x := range xs {
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
			}
		case []int64:
			for i, x := range xs {
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
			}
		case []float64:
			for i, x := range xs {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// maxBinaryCount bounds node/edge counts to catch corrupt headers before
// attempting a huge allocation.
const maxBinaryCount = 1 << 33

// binaryChunk is how many array elements are read per allocation step, so
// a header claiming billions of entries cannot force a giant allocation
// before the (truncated) stream runs dry.
const binaryChunk = 1 << 16

// ReadBinary parses the binary format and reconstructs the incoming CSR.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, binaryBufSize)
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("graph: reading binary magic: %w", err)
	}
	if [4]byte(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q (want %q)", hdr[:4], binaryMagic[:])
	}
	if _, err := io.ReadFull(br, hdr[4:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary body: %w", err)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	n := binary.LittleEndian.Uint64(hdr[8:])
	m := binary.LittleEndian.Uint64(hdr[16:])
	if n == 0 || n > maxBinaryCount || m > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible binary header n=%d m=%d", n, m)
	}
	g := &Graph{}
	scratch := make([]byte, 8*min(max(n+1, m), binaryChunk))
	var err error
	if g.nodeW, err = readLE[float64](br, n, scratch); err != nil {
		return nil, err
	}
	if g.outStart, err = readLE[int64](br, n+1, scratch); err != nil {
		return nil, err
	}
	if g.outDst, err = readLE[int32](br, m, scratch); err != nil {
		return nil, err
	}
	if g.outW, err = readLE[float64](br, m, scratch); err != nil {
		return nil, err
	}
	if g.outStart[0] != 0 || g.outStart[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt CSR offsets (start=%d end=%d m=%d)", g.outStart[0], g.outStart[n], m)
	}
	for i := uint64(0); i < n; i++ {
		if g.outStart[i] > g.outStart[i+1] {
			return nil, fmt.Errorf("graph: corrupt CSR offsets at node %d", i)
		}
	}
	for _, d := range g.outDst {
		if d < 0 || uint64(d) >= n {
			return nil, fmt.Errorf("graph: edge destination %d out of range", d)
		}
	}
	if flags&flagLabeled != 0 {
		g.labels = make([]string, n)
		g.byName = make(map[string]int32, n)
		for i := uint64(0); i < n; i++ {
			l, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: reading label %d: %w", i, err)
			}
			if l > 1<<20 {
				return nil, fmt.Errorf("graph: implausible label length %d", l)
			}
			buf := slices.Grow(scratch[:0], int(l))[:l]
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("graph: reading label %d: %w", i, err)
			}
			scratch = buf
			g.labels[i] = string(buf)
			if _, dup := g.byName[g.labels[i]]; dup {
				return nil, fmt.Errorf("graph: duplicate label %q", g.labels[i])
			}
			g.byName[g.labels[i]] = int32(i)
		}
	}
	g.buildIncoming()
	return g, nil
}

// readLE reads count little-endian values through scratch. The result
// grows a chunk at a time, so truncated input fails before large
// allocations.
func readLE[T fixed](br *bufio.Reader, count uint64, scratch []byte) ([]T, error) {
	size := sizeOf[T]()
	out := make([]T, 0, min(count, binaryChunk))
	for uint64(len(out)) < count {
		step := int(min(count-uint64(len(out)), binaryChunk))
		buf := scratch[:step*size]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: reading binary body: %w", err)
		}
		out = slices.Grow(out, step)
		switch dst := any(out[len(out) : len(out)+step]).(type) {
		case []int32:
			for i := range dst {
				dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
			}
		case []int64:
			for i := range dst {
				dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		case []float64:
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
		out = out[:len(out)+step]
	}
	return out, nil
}
