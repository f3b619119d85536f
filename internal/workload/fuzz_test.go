package workload

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceBytes records a small valid binary trace into memory via a temp
// file (the encoder needs an io.WriteSeeker).
func traceBytes(t testing.TB, cores, ops int) []byte {
	t.Helper()
	g, err := Named("micro", cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(writeTempBinary(t, g, cores, ops))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// drainReplay drives every core of a successfully opened replay through
// its full claimed stream, returning how many ops were served. The
// open-time validation bounds CoreLen by segment bytes, so the loop is
// bounded by the input size — the fuzz target asserts that.
func drainReplay(s *StreamReplay) int {
	total := 0
	for c := 0; c < s.Cores(); c++ {
		for i := 0; i < s.CoreLen(c); i++ {
			s.Next(c)
			total++
		}
	}
	return total
}

// FuzzTrace is the hostile-input battery for the trace reader: mutated
// headers, truncated segments, lying index entries, corrupt varints and
// files that are not binary traces at all (text) must surface as
// errors — at open, or through StreamReplay.Err after a poisoned
// decode — and must never panic, hang, or allocate beyond the
// input-bounded window budget. Both entry points are exercised: the
// in-memory reader (NewStreamReplay) and the file opener (OpenTrace),
// which takes the mmap path on linux.
func FuzzTrace(f *testing.F) {
	valid := traceBytes(f, 3, 40)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])    // truncated segments
	f.Add(valid[:binaryHeaderLen]) // header only
	f.Add([]byte("PTRC"))          // bare magic
	f.Add([]byte("# text trace\n0 R 0 1\n1 W 40 2\n2 R 80 0\n3 W 0 5\n"))
	f.Add([]byte("0 R zz 1\n")) // short text
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-3] ^= 0x80 // damage a varint near the tail
	f.Add(corrupt)
	lyingOps := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(lyingOps[binaryHeaderLen+16:], 1<<62) // core 0 claims 2^62 ops
	f.Add(lyingOps)

	// One scratch path reused across executions: a per-exec TempDir
	// would bottleneck the fuzz loop on directory churn.
	path := filepath.Join(f.TempDir(), "fuzz.trace")

	f.Fuzz(func(t *testing.T, data []byte) {
		// In-memory path, accepting whatever core count the header
		// declares (n=0), as tooling does.
		if s, err := NewStreamReplay(bytes.NewReader(data), int64(len(data)), 0); err == nil {
			if served := drainReplay(s); served > len(data) {
				t.Fatalf("served %d ops from %d input bytes: claimed counts not bounded by segment bytes", served, len(data))
			}
			_ = s.Err() // may or may not be set; it must simply not panic
			s.Close()
		}

		// File-based entry point: the same bytes through the pread/mmap
		// window machinery.
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := OpenTrace(path, 4)
		if err != nil {
			return
		}
		defer r.Close()
		for c := 0; c < 4; c++ {
			for i := 0; i < r.CoreLen(c) && i < 1<<16; i++ {
				r.Next(c)
			}
		}
		_ = r.Err()
	})
}

// TestStreamReplayCorruptSegmentPoisons pins the no-panic contract
// deterministically: a valid trace with a damaged record must keep
// serving (exhausted) ops, set Err, and never crash.
func TestStreamReplayCorruptSegmentPoisons(t *testing.T) {
	data := traceBytes(t, 2, 30)
	// Damage the middle of core 0's segment: set a continuation bit
	// run that cannot terminate within a valid varint.
	e := data[binaryHeaderLen:]
	off := binary.LittleEndian.Uint64(e[0:8])
	for i := uint64(0); i < 12; i++ {
		data[off+10+i] = 0xFF
	}
	s, err := NewStreamReplay(bytes.NewReader(data), int64(len(data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.CoreLen(0); i++ {
		s.Next(0) // must not panic
	}
	if s.Err() == nil {
		t.Fatal("corrupt segment decoded without error")
	}
	if !strings.Contains(s.Err().Error(), "corrupt") {
		t.Fatalf("Err = %v, want a corruption report", s.Err())
	}
	// The undamaged core still replays in full.
	for i := 0; i < s.CoreLen(1); i++ {
		s.Next(1)
	}
}

// TestBinaryClaimedOpsBounded pins the open-time amplification guard: an
// index entry claiming more ops than its segment could hold (2 bytes
// per record minimum) must be rejected at open.
func TestBinaryClaimedOpsBounded(t *testing.T) {
	data := traceBytes(t, 2, 10)
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[binaryHeaderLen+16:], 1<<62)
	_, err := NewStreamReplay(bytes.NewReader(bad), int64(len(bad)), 2)
	if err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("lying ops count accepted: %v", err)
	}
}

// TestBinaryOverlappingSegmentsRejected closes the other amplification
// route: two index entries aliasing the same file region would let a
// small file bill each byte to several cores, so total served ops
// exceed what the file can hold. The reader must reject the index at
// open.
func TestBinaryOverlappingSegmentsRejected(t *testing.T) {
	data := traceBytes(t, 2, 10)
	bad := append([]byte(nil), data...)
	// Point core 1's segment at core 0's.
	copy(bad[binaryHeaderLen+binaryIndexEntry:binaryHeaderLen+2*binaryIndexEntry],
		bad[binaryHeaderLen:binaryHeaderLen+binaryIndexEntry])
	_, err := NewStreamReplay(bytes.NewReader(bad), int64(len(bad)), 2)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("aliased segments accepted: %v", err)
	}
}
