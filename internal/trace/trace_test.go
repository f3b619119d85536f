package trace

import (
	"bytes"
	"strings"
	"testing"

	"patch/internal/msg"
)

func tok(addr msg.Addr, tokens int, owner bool) *msg.Message {
	return &msg.Message{Type: msg.Ack, Addr: addr, Tokens: tokens, Owner: owner}
}

func TestTracerRecordsEverythingByDefault(t *testing.T) {
	var tr Tracer
	tr.Observe(10, &msg.Message{Type: msg.GetS, Addr: 0x40})
	tr.Observe(20, &msg.Message{Type: msg.Data, Addr: 0x80})
	if len(tr.Records()) != 2 {
		t.Fatalf("recorded %d", len(tr.Records()))
	}
	if tr.Records()[0].At != 10 || tr.Records()[1].Msg.Addr != 0x80 {
		t.Fatal("record contents wrong")
	}
}

func TestTracerFilter(t *testing.T) {
	tr := Tracer{Filter: ForBlock(0x40)}
	tr.Observe(1, &msg.Message{Type: msg.GetS, Addr: 0x40})
	tr.Observe(2, &msg.Message{Type: msg.GetS, Addr: 0x80})
	if len(tr.Records()) != 1 {
		t.Fatalf("filter recorded %d", len(tr.Records()))
	}
}

func TestTracerRetentionWindow(t *testing.T) {
	tr := Tracer{Keep: 3}
	for i := 0; i < 10; i++ {
		tr.Observe(1, &msg.Message{Type: msg.GetS, Addr: msg.Addr(i * 64)})
	}
	if len(tr.Records()) != 3 {
		t.Fatalf("kept %d, want 3", len(tr.Records()))
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped %d, want 7", tr.Dropped())
	}
	// Most recent retained.
	if tr.Records()[2].Msg.Addr != msg.Addr(9*64) {
		t.Fatal("retention lost the newest record")
	}
}

func TestTracerWriter(t *testing.T) {
	var buf bytes.Buffer
	tr := Tracer{W: &buf}
	tr.Observe(42, &msg.Message{Type: msg.Fwd, Addr: 0x100, Src: 1, Dst: 2})
	if !strings.Contains(buf.String(), "Fwd") || !strings.Contains(buf.String(), "42") {
		t.Fatalf("writer output %q", buf.String())
	}
}

func TestHistory(t *testing.T) {
	var tr Tracer
	tr.Observe(1, &msg.Message{Type: msg.GetM, Addr: 0x40})
	tr.Observe(2, &msg.Message{Type: msg.GetS, Addr: 0x80})
	tr.Observe(3, &msg.Message{Type: msg.Data, Addr: 0x40, HasData: true})
	var buf bytes.Buffer
	tr.History(0x40, &buf)
	out := buf.String()
	if !strings.Contains(out, "GetM") || !strings.Contains(out, "Data") {
		t.Fatalf("history missing entries: %q", out)
	}
	if strings.Contains(out, "GetS") {
		t.Fatal("history leaked another block")
	}
}

func TestAuditorBalancedFlow(t *testing.T) {
	a := NewAuditor(4)
	m := tok(0x40, 3, true)
	a.Sent(m)
	held := 0
	a.TokenHoldings(func(addr msg.Addr, c int, owner bool) {
		held++
		if addr != 0x40 || c != 3 || !owner {
			t.Fatalf("inflight = %#x: %d, owner %v", uint64(addr), c, owner)
		}
	})
	if held != 1 {
		t.Fatalf("%d blocks in flight, want 1", held)
	}
	a.Delivered(m)
	if !a.QuiescentOK() {
		t.Fatal("not quiescent after balanced flow")
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
}

func TestAuditorIgnoresTokenlessMessages(t *testing.T) {
	a := NewAuditor(4)
	a.Sent(&msg.Message{Type: msg.GetS, Addr: 0x40})
	if !a.QuiescentOK() {
		t.Fatal("token-less message tracked")
	}
}

func TestAuditorDetectsDuplicateOwner(t *testing.T) {
	a := NewAuditor(4)
	a.Sent(tok(0x40, 1, true))
	a.Sent(tok(0x40, 1, true)) // second owner token in flight: impossible
	if a.Err() == nil {
		t.Fatal("duplicate in-flight owner not detected")
	}
}

func TestAuditorDetectsPhantomDelivery(t *testing.T) {
	a := NewAuditor(4)
	a.Delivered(tok(0x40, 2, false)) // delivery of something never sent
	if a.Err() == nil {
		t.Fatal("negative in-flight count not detected")
	}
}

func TestAuditorDetectsLoss(t *testing.T) {
	a := NewAuditor(4)
	a.Sent(tok(0x40, 2, false))
	// Never delivered: quiescence check must fail.
	if a.QuiescentOK() {
		t.Fatal("lost tokens not detected at quiescence")
	}
}
