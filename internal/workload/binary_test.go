package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"patch/internal/msg"
)

// writeTempBinary records g to a binary trace file and returns its path.
func writeTempBinary(t testing.TB, g Generator, cores, ops int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordBinary(f, g, cores, ops); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkMatchesGenerator drives r through ops operations per core and
// fails unless each one equals what a fresh generator for the workload
// and seed produces, with no decode error and no over-drive.
func checkMatchesGenerator(t *testing.T, how string, r *StreamReplay, wl string, cores, ops int, seed int64) {
	t.Helper()
	if r.Len() != ops {
		t.Fatalf("%s %s: Len %d, want %d", wl, how, r.Len(), ops)
	}
	fresh, err := Named(wl, cores, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		for c := 0; c < cores; c++ {
			if want, got := fresh.Next(c), r.Next(c); got != want {
				t.Fatalf("%s %s: op %d core %d: got %+v want %+v", wl, how, i, c, got, want)
			}
		}
	}
	if err := r.Err(); err != nil || r.Overdriven() != 0 {
		t.Fatalf("%s %s: Err %v, Overdriven %d", wl, how, err, r.Overdriven())
	}
}

// TestRecordReplayRoundTrip: for several workloads, a recorded trace
// opened with OpenTrace (the mmap path on linux) must replay op-for-op
// what a fresh generator with the same seed produces.
func TestRecordReplayRoundTrip(t *testing.T) {
	const cores, ops = 8, 400
	for _, wl := range []string{"oltp", "ocean", "micro"} {
		g, err := Named(wl, cores, 42)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenTrace(writeTempBinary(t, g, cores, ops), cores)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesGenerator(t, "OpenTrace", r, wl, cores, ops, 42)
		r.Close()
	}
}

// TestBinaryRoundTripMatchesText is the round-trip property test for
// the pread path: for several workloads, a recorded trace streamed at
// window sizes small enough to force many refills must replay
// op-for-op what a fresh generator with the same seed produces.
func TestBinaryRoundTripMatchesText(t *testing.T) {
	const cores, ops = 8, 400
	for _, wl := range []string{"oltp", "ocean", "micro"} {
		g, err := Named(wl, cores, 42)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(writeTempBinary(t, g, cores, ops))
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := file.Stat()
		for _, window := range []int{64, 256, defaultWindow} {
			stream, err := NewStreamReplay(file, fi.Size(), cores)
			if err != nil {
				t.Fatal(err)
			}
			stream.window = window
			checkMatchesGenerator(t, fmt.Sprintf("pread window %d", window), stream, wl, cores, ops, 42)
		}
		file.Close()
	}
}

// TestBinaryMmapPathEdgeDeltas covers OpenTrace (the mmap fast path on
// linux) end to end on per-core streams of unequal length, including
// extreme address deltas the zigzag encoding must survive.
func TestBinaryMmapPathEdgeDeltas(t *testing.T) {
	const cores = 2
	ops := []Op{
		{Addr: 0, Write: false, Think: 0},
		{Addr: msg.Addr(uint64(0xFFFF_FFFF_FFFF_FFC0)), Write: true, Think: 3}, // huge positive delta
		{Addr: msg.Addr(BlockSize), Write: false, Think: 1 << 40},              // huge negative delta
		{Addr: msg.Addr(5 << 36), Write: true, Think: 7},
	}
	streams := [][]Op{ops, ops[:2]}
	path := filepath.Join(t.TempDir(), "edge.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = writeBinary(f, cores, func(c int, emit func(Op) error) error {
		for _, op := range streams[c] {
			if err := emit(op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenTrace(path, cores)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 || s.CoreLen(0) != 4 || s.CoreLen(1) != 2 {
		t.Fatalf("lengths: Len=%d CoreLen=%d,%d", s.Len(), s.CoreLen(0), s.CoreLen(1))
	}
	for i, want := range ops {
		if got := s.Next(0); got != want {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestOpenTraceDetectsFormat: OpenTrace tells a binary trace by its
// magic. A binary trace opens as a stream; a trace in the line-per-op
// text format ("<core> <R|W> <hex addr> <think>") must fail at open
// with the bad-magic error, prefixed by its path, rather than replay
// as garbage.
func TestOpenTraceDetectsFormat(t *testing.T) {
	g, _ := Named("jbb", 2, 9)
	bin, err := OpenTrace(writeTempBinary(t, g, 2, 2), 2)
	if err != nil {
		t.Fatalf("binary trace rejected: %v", err)
	}
	bin.Close()

	path := filepath.Join(t.TempDir(), "old.trace")
	text := "# workload jbb, 2 cores, 2 ops/core\n0 R 1000 5\n1 W 1040 0\n0 W 1000 1\n1 R 1040 2\n"
	if err := os.WriteFile(path, []byte(text), 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := OpenTrace(path, 2)
	if err == nil {
		r.Close()
		t.Fatal("text trace opened")
	}
	if !strings.HasPrefix(err.Error(), path+": ") || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("error = %v, want the bad-magic error prefixed by %s", err, path)
	}
}

func TestStreamReplayOverdrive(t *testing.T) {
	g, _ := Named("micro", 2, 3)
	path := writeTempBinary(t, g, 2, 5)
	s, err := OpenTrace(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var final Op
	for i := 0; i < 5; i++ {
		final = s.Next(0)
	}
	if s.Overdriven() != 0 {
		t.Fatalf("Overdriven = %d before exhaustion", s.Overdriven())
	}
	if last := s.Next(0); last != final || s.Overdriven() != 1 {
		t.Fatalf("over-drive served %+v (Overdriven %d), want a counted repeat of %+v", last, s.Overdriven(), final)
	}
	if again := s.Next(0); again != final {
		t.Fatalf("over-driven ops differ: %+v vs %+v", again, final)
	}
	if s.Overdriven() != 2 {
		t.Fatalf("Overdriven = %d, want 2", s.Overdriven())
	}
}

// TestReplayOverdrive: on the pread path, a one-op stream serves its op
// once, then repeats it and counts each repeat; a Next on a core with
// ops left does not touch the count.
func TestReplayOverdrive(t *testing.T) {
	streams := []Op{{Addr: 0x1000, Think: 1}, {Addr: 0x2000, Write: true, Think: 2}}
	path := filepath.Join(t.TempDir(), "one.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeBinary(f, 2, func(c int, emit func(Op) error) error { return emit(streams[c]) }); err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	tr, err := NewStreamReplay(f, fi.Size(), 2)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.Next(0)
	if first != streams[0] || tr.Overdriven() != 0 {
		t.Fatalf("first Next = %+v (Overdriven %d), want %+v before exhaustion", first, tr.Overdriven(), streams[0])
	}
	again := tr.Next(0) // stream exhausted: repeats, but is counted
	if first != again {
		t.Fatal("over-driven replay should repeat the last op")
	}
	if tr.Overdriven() != 1 {
		t.Fatalf("Overdriven = %d, want 1", tr.Overdriven())
	}
	if op := tr.Next(1); op != streams[1] {
		t.Fatalf("core 1 Next = %+v, want %+v", op, streams[1])
	}
	if tr.Overdriven() != 1 {
		t.Fatalf("in-range Next bumped Overdriven to %d", tr.Overdriven())
	}
}

func TestBinaryHeaderValidation(t *testing.T) {
	g, _ := Named("micro", 2, 1)
	path := writeTempBinary(t, g, 2, 4)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	open := func(data []byte, n int) error {
		_, err := NewStreamReplay(bytes.NewReader(data), int64(len(data)), n)
		return err
	}
	if err := open(good, 2); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	if err := open(good, 4); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("core-count mismatch accepted: %v", err)
	}
	if err := open(good[:6], 2); err == nil {
		t.Error("truncated header accepted")
	}
	if err := open(good[:binaryHeaderLen+8], 2); err == nil {
		t.Error("truncated index accepted")
	}

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if err := open(bad, 2); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic accepted: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4] = 99
	if err := open(bad, 2); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version accepted: %v", err)
	}

	// Segment pointing past EOF.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[binaryHeaderLen+8:], 1<<40)
	if err := open(bad, 2); err == nil || !strings.Contains(err.Error(), "segment") {
		t.Errorf("out-of-range segment accepted: %v", err)
	}

	// Empty core stream.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[binaryHeaderLen+16:], 0)
	if err := open(bad, 2); err == nil || !strings.Contains(err.Error(), "no operations") {
		t.Errorf("empty core stream accepted: %v", err)
	}
}

// TestStreamReplayStartupAllocsBounded is the O(window)-not-O(trace)
// guarantee: opening a trace 16x larger must not allocate more.
func TestStreamReplayStartupAllocsBounded(t *testing.T) {
	const cores = 4
	startupAllocs := func(ops int) float64 {
		g, _ := Named("micro", cores, 3)
		path := writeTempBinary(t, g, cores, ops)
		return testing.AllocsPerRun(5, func() {
			s, err := OpenTrace(path, cores)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cores; c++ {
				s.Next(c)
			}
			s.Close()
		})
	}
	small, large := startupAllocs(500), startupAllocs(8000)
	if large > small {
		t.Errorf("startup allocs grew with trace size: %v (500 ops) -> %v (8000 ops)", small, large)
	}
}

// BenchmarkTraceReplay measures replay startup (open + first op per
// core): the streamer reads per-core windows on demand, so it does not
// grow with the trace.
func BenchmarkTraceReplay(b *testing.B) {
	const cores, ops = 16, 5000
	g, _ := Named("oltp", cores, 1)
	path := writeTempBinary(b, g, cores, ops)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := OpenTrace(path, cores)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < cores; c++ {
			r.Next(c)
		}
		r.Close()
	}
}
