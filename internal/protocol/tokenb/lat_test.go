package tokenb

import (
	"testing"

	"patch/internal/event"
	"patch/internal/msg"
)

func TestLatencyProbe64(t *testing.T) {
	c := newCluster(64)
	a := addrHomedAt(c.env, 63)
	// Cold write miss latency.
	t0 := c.eng.Now()
	d := c.access(0, a, true)
	c.run(t)
	t.Logf("cold write: %d cycles (done=%v)", c.eng.Now()-t0, *d)
	// Sharing read.
	c.eng.After(1000, event.Func(func(event.Time) {}))
	c.run(t)
	t1 := c.eng.Now()
	d2 := c.access(1, a, false)
	c.run(t)
	t.Logf("sharing read: %d cycles (done=%v)", c.eng.Now()-t1, *d2)
	// Spread the block across many readers, then write.
	b := addrHomedAt(c.env, 62)
	c.access(2, b, true)
	c.run(t)
	for i := 3; i < 40; i++ {
		c.access(i, b, false)
		c.run(t)
	}
	t2 := c.eng.Now()
	d3 := c.access(1, b, true)
	c.run(t)
	t.Logf("write to 37-sharer block: %d cycles (done=%v)", c.eng.Now()-t2, *d3)
	_ = msg.Addr(0)
}
