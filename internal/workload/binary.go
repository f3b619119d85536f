// Recorded traces: a run's reference stream can be recorded and
// replayed later, so a measured run can be reproduced exactly or
// shared. Traces are binary, designed so multi-GB recordings open at
// near-zero resident cost instead of being slurped into per-core []Op
// slices.
//
// Layout (all integers little-endian, varints as in encoding/binary):
//
//	header:
//	  magic   [4]byte  "PTRC"
//	  version uint8    currently 1
//	  _       [3]byte  zero padding
//	  cores   uint32
//	index, one entry per core (the length prefix of its segment):
//	  offset  uint64   absolute file offset of the core's segment
//	  bytes   uint64   segment length in bytes
//	  ops     uint64   record count
//	segments, one per core, records back to back:
//	  delta   varint   signed block-address delta from the previous
//	                   record's address, in BlockSize units (first
//	                   record is relative to address 0)
//	  tw      uvarint  think<<1 | writeBit
//
// Grouping each core's stream into a contiguous, length-prefixed
// segment is what makes windowed streaming possible: a reader serves
// Next(core) from a fixed-size per-core window refilled on demand via
// io.ReaderAt (mmap-backed on linux, buffered pread elsewhere), so
// resident memory is O(cores x window), not O(trace).
package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"patch/internal/msg"
)

const (
	binaryMagic   = "PTRC"
	binaryVersion = 1

	// binaryIndexEntry is the per-core index entry size (offset, bytes,
	// ops), and binaryHeaderLen the fixed header before it.
	binaryHeaderLen  = 12
	binaryIndexEntry = 24

	// maxRecordBytes bounds one encoded record (two 64-bit varints).
	maxRecordBytes = 2 * binary.MaxVarintLen64

	// defaultWindow is the per-core streaming window on the pread path.
	defaultWindow = 64 << 10
)

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// writeBinary streams the header, per-core segments, and back-patched
// index to w. perCore must emit core c's operations in order.
func writeBinary(w io.WriteSeeker, cores int, perCore func(c int, emit func(Op) error) error) error {
	if cores <= 0 {
		return fmt.Errorf("workload: binary trace needs at least one core, got %d", cores)
	}
	type segment struct{ off, bytes, ops uint64 }
	segs := make([]segment, cores)
	headerLen := int64(binaryHeaderLen + binaryIndexEntry*cores)
	if _, err := w.Seek(headerLen, io.SeekStart); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	off := uint64(headerLen)
	var scratch [maxRecordBytes]byte
	for c := 0; c < cores; c++ {
		segs[c].off = off
		var prevBlock uint64
		emit := func(op Op) error {
			if uint64(op.Addr)%BlockSize != 0 {
				return fmt.Errorf("workload: binary trace: address %#x not block aligned", uint64(op.Addr))
			}
			if op.Think < 0 {
				return fmt.Errorf("workload: binary trace: negative think time %d", op.Think)
			}
			block := uint64(op.Addr) / BlockSize
			n := binary.PutUvarint(scratch[:], zigzag(int64(block-prevBlock)))
			prevBlock = block
			tw := uint64(op.Think) << 1
			if op.Write {
				tw |= 1
			}
			n += binary.PutUvarint(scratch[n:], tw)
			if _, err := bw.Write(scratch[:n]); err != nil {
				return err
			}
			segs[c].bytes += uint64(n)
			segs[c].ops++
			return nil
		}
		if err := perCore(c, emit); err != nil {
			return err
		}
		off += segs[c].bytes
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	hdr := make([]byte, headerLen)
	copy(hdr, binaryMagic)
	hdr[4] = binaryVersion
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(cores))
	for c, s := range segs {
		e := hdr[binaryHeaderLen+binaryIndexEntry*c:]
		binary.LittleEndian.PutUint64(e[0:8], s.off)
		binary.LittleEndian.PutUint64(e[8:16], s.bytes)
		binary.LittleEndian.PutUint64(e[16:24], s.ops)
	}
	if _, err := w.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := w.Write(hdr)
	return err
}

// RecordBinary captures opsPerCore operations per core from g and
// writes them as a binary trace. Capture proceeds core by core —
// generators produce independent per-core streams, so the result is
// what the interleaving simulator would have drawn — which keeps
// memory O(1) regardless of trace size.
func RecordBinary(w io.WriteSeeker, g Generator, cores, opsPerCore int) error {
	return writeBinary(w, cores, func(c int, emit func(Op) error) error {
		for i := 0; i < opsPerCore; i++ {
			if err := emit(g.Next(c)); err != nil {
				return err
			}
		}
		return nil
	})
}

// coreCursor is one core's decode position within its segment.
type coreCursor struct {
	buf       []byte // current window (or the whole mmapped segment)
	pos       int    // decode offset within buf
	off, end  int64  // unread file range of the segment
	prevBlock uint64
	remaining uint64
	last      Op
}

// StreamReplay replays a binary trace by reading fixed-size per-core
// windows on demand instead of materializing the whole trace; resident
// memory is O(cores x window) on the pread path and demand-paged on
// the linux mmap path. A core that exhausts its stream repeats its
// last operation and counts the over-drive (see Overdriven), so a
// caller that bypasses the Len guard cannot silently skew results.
type StreamReplay struct {
	src        io.ReaderAt
	closer     io.Closer
	cores      []coreCursor
	coreOps    []uint64
	minOps     int
	window     int
	overdriven uint64
	err        error // first decode failure; see Err
}

// OpenTrace opens a recorded trace file for n cores (0 accepts the
// recorded count), preferring a read-only mmap of the file on linux and
// falling back to buffered pread windows. A file that is not a binary
// trace, such as a line-per-op text trace, fails here with the
// bad-magic error, prefixed by its path.
func OpenTrace(path string, n int) (*StreamReplay, error) {
	src, closer, size, err := openReaderAt(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamReplay(src, size, n)
	if err != nil {
		closer.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.closer = closer
	return s, nil
}

// NewStreamReplay builds a streaming replay over an already-open binary
// trace of the given size. n must match the recorded core count; 0
// accepts whatever the header declares (tooling that inspects a trace
// of unknown shape). The caller keeps ownership of r unless the replay
// was built by OpenTrace.
func NewStreamReplay(r io.ReaderAt, size int64, n int) (*StreamReplay, error) {
	hdr := make([]byte, binaryHeaderLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("workload: binary trace: truncated header: %w", err)
	}
	if string(hdr[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("workload: binary trace: bad magic %q", hdr[:4])
	}
	if v := hdr[4]; v != binaryVersion {
		return nil, fmt.Errorf("workload: binary trace: unsupported version %d (have %d)", v, binaryVersion)
	}
	cores := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if n != 0 && cores != n {
		return nil, fmt.Errorf("workload: binary trace recorded for %d cores, want %d", cores, n)
	}
	if cores <= 0 || int64(binaryHeaderLen+binaryIndexEntry*cores) > size {
		return nil, fmt.Errorf("workload: binary trace: implausible core count %d for a %d-byte file", cores, size)
	}
	idx := make([]byte, binaryIndexEntry*cores)
	if _, err := r.ReadAt(idx, binaryHeaderLen); err != nil {
		return nil, fmt.Errorf("workload: binary trace: truncated index: %w", err)
	}
	s := &StreamReplay{
		src:     r,
		cores:   make([]coreCursor, cores),
		coreOps: make([]uint64, cores),
		window:  defaultWindow,
	}
	headerLen := int64(binaryHeaderLen + binaryIndexEntry*cores)
	spans := make([][2]uint64, 0, cores)
	for c := range s.cores {
		e := idx[binaryIndexEntry*c:]
		off := binary.LittleEndian.Uint64(e[0:8])
		bytes := binary.LittleEndian.Uint64(e[8:16])
		ops := binary.LittleEndian.Uint64(e[16:24])
		if ops == 0 {
			return nil, fmt.Errorf("workload: trace has no operations for core %d", c)
		}
		if off < uint64(headerLen) || off+bytes < off || off+bytes > uint64(size) {
			return nil, fmt.Errorf("workload: binary trace: core %d segment [%d, %d) outside file of %d bytes",
				c, off, off+bytes, size)
		}
		// A record is at least two bytes (one varint each for delta and
		// think/write), so an ops count beyond bytes/2 is a lie — and,
		// unchecked, a four-byte-costs-you-16-EiB amplification for
		// anything that sizes buffers or loops off the claimed count.
		if ops > bytes/2 {
			return nil, fmt.Errorf("workload: binary trace: core %d claims %d ops in a %d-byte segment (minimum 2 bytes per record)",
				c, ops, bytes)
		}
		cur := &s.cores[c]
		cur.off, cur.end = int64(off), int64(off+bytes)
		cur.remaining = ops
		s.coreOps[c] = ops
		spans = append(spans, [2]uint64{off, off + bytes})
		if s.minOps == 0 || int(ops) < s.minOps {
			s.minOps = int(ops)
		}
	}
	// Segments must be pairwise disjoint (the format writes them back
	// to back). Overlap is how a small hostile file claims a large
	// total op count — every byte billed to several cores — which the
	// per-segment bound alone cannot see.
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			return nil, fmt.Errorf("workload: binary trace: core segments [%d, %d) and [%d, %d) overlap",
				spans[i-1][0], spans[i-1][1], spans[i][0], spans[i][1])
		}
	}
	// With an mmapped source, decode straight from the mapping: the
	// window is the whole (demand-paged) segment and never refills.
	if sl, ok := r.(byteSlicer); ok {
		for c := range s.cores {
			cur := &s.cores[c]
			cur.buf = sl.slice(cur.off, cur.end-cur.off)
			cur.off = cur.end
		}
	}
	return s, nil
}

// byteSlicer is the zero-copy fast path an mmap-backed source offers.
type byteSlicer interface{ slice(off, n int64) []byte }

// Name implements Generator.
func (s *StreamReplay) Name() string { return "trace" }

// Len returns the shortest per-core stream length (the safe ops/core).
func (s *StreamReplay) Len() int { return s.minOps }

// CoreLen returns the recorded length of one core's stream.
func (s *StreamReplay) CoreLen(core int) int { return int(s.coreOps[core]) }

// Cores returns the recorded core count.
func (s *StreamReplay) Cores() int { return len(s.cores) }

// Overdriven counts Next calls made after a core's stream was already
// exhausted. Each such call returned a repeat of the core's last
// operation; the simulator refuses results from an over-driven replay.
func (s *StreamReplay) Overdriven() uint64 { return s.overdriven }

// Err reports the first decode failure (corrupt varint, truncated
// segment, failed read) encountered by Next. Generator.Next has no
// error path, so the failing core's stream reads as exhausted from
// that point on, and the simulator refuses the run's result.
func (s *StreamReplay) Err() error { return s.err }

// Close releases the underlying file or mapping (if the replay owns
// one). The replay must not be driven afterwards.
func (s *StreamReplay) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// Next implements Generator. A corrupt segment (a record that does not
// decode, or a read failure mid-stream) poisons the replay instead of
// panicking: Generator has no error path, so the failing core's stream
// reads as exhausted, the failure is retained for Err, and the
// simulator refuses the run's result. Hostile trace files must never
// crash, hang, or balloon the process (windows are fixed-size; the
// claimed op counts are bounds-checked against segment bytes at open).
func (s *StreamReplay) Next(core int) Op {
	c := &s.cores[core]
	if c.remaining == 0 {
		s.overdriven++
		return c.last
	}
	if len(c.buf)-c.pos < maxRecordBytes && c.off < c.end {
		if err := s.refill(c); err != nil {
			return s.corrupt(c, fmt.Errorf("workload: binary trace read failed for core %d: %w", core, err))
		}
	}
	delta, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		return s.corrupt(c, fmt.Errorf("workload: corrupt binary trace: bad address delta for core %d", core))
	}
	c.pos += n
	tw, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return s.corrupt(c, fmt.Errorf("workload: corrupt binary trace: bad think field for core %d", core))
	}
	c.pos += n
	c.prevBlock += uint64(delta)
	c.remaining--
	c.last = Op{Addr: msg.Addr(c.prevBlock * BlockSize), Write: tw&1 == 1, Think: int(tw >> 1)}
	return c.last
}

// corrupt records the first decode failure and retires the core's
// stream, so a replay over a damaged trace cannot spin on the bad
// record or walk past it into garbage.
func (s *StreamReplay) corrupt(c *coreCursor, err error) Op {
	if s.err == nil {
		s.err = err
	}
	c.remaining = 0
	return c.last
}

// refill slides the window: unconsumed bytes move to the front and the
// rest is read from the segment via pread. The window never grows — a
// record that does not fit in it is a decode error, not a resize.
func (s *StreamReplay) refill(c *coreCursor) error {
	if c.buf == nil {
		c.buf = make([]byte, 0, s.window)
	}
	rem := copy(c.buf[:cap(c.buf)], c.buf[c.pos:])
	c.pos = 0
	fill := cap(c.buf) - rem
	if left := c.end - c.off; int64(fill) > left {
		fill = int(left)
	}
	c.buf = c.buf[:rem+fill]
	// ReadAt reads len(p) bytes or fails; exactly-at-EOF reads may
	// report io.EOF alongside a full count.
	if n, err := s.src.ReadAt(c.buf[rem:], c.off); n != fill {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	c.off += int64(fill)
	return nil
}
