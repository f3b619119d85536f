package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"patch"
	"patch/service"
)

// cachedJobMatrix is a small figure-shaped job of 300 replicas: oltp
// on the three backends at 16 cores, 100 seeds each.
func cachedJobMatrix() patch.Matrix {
	return patch.Matrix{
		Base:      patch.Config{Cores: 16, Workload: "oltp", OpsPerCore: 10, WarmupOps: 10, SkipChecks: true, Seed: 1},
		Protocols: []patch.ProtoVariant{{Protocol: patch.Directory}, {Protocol: patch.PATCH, Variant: patch.VariantAll}, {Protocol: patch.TokenB}},
		Seeds:     100,
	}
}

// BenchmarkAppendResult prices journaling one completed replica: a
// real PATCH result appended to a job's journal on disk.
func BenchmarkAppendResult(b *testing.B) {
	r, err := patch.Run(patch.Config{Protocol: patch.PATCH, Variant: patch.VariantAll, Cores: 16, Workload: "oltp", OpsPerCore: 10, WarmupOps: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := service.OpenJobStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.SaveSpec("job-1", 1, "", service.JobSpec{Matrix: cachedJobMatrix()}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendResult("job-1", i, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedJob prices a resubmitted job: one 300-replica job
// whose every replica is a result-cache hit, through submit, the
// progress stream to its terminal event and the CSV download, on a
// server with a job store and a disk cache behind an HTTP listener.
// Each job is forgotten after its download, so every iteration sees
// the same server.
func BenchmarkCachedJob(b *testing.B) {
	dir := b.TempDir()
	cache, err := service.NewResultCache(filepath.Join(dir, "cache"))
	if err != nil {
		b.Fatal(err)
	}
	st, err := service.OpenJobStore(filepath.Join(dir, "store"))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{MaxJobs: 1, Workers: 1, Cache: cache, Store: st}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()
	spec := service.JobSpec{Matrix: cachedJobMatrix(), Workers: 1}

	run := func() (service.JobStatus, error) {
		submitted, err := c.Submit(ctx, spec)
		if err != nil {
			return submitted, err
		}
		var final service.ProgressEvent // the stream ends at the terminal event
		if err := c.Progress(ctx, submitted.ID, func(ev service.ProgressEvent) bool {
			final = ev
			return true
		}); err != nil {
			return submitted, err
		}
		if final.State != service.StateDone {
			return submitted, fmt.Errorf("job %s ended %+v", submitted.ID, final)
		}
		var csv bytes.Buffer
		if err := c.Result(ctx, submitted.ID, "csv", &csv); err != nil {
			return submitted, err
		}
		done, err := c.Status(ctx, submitted.ID)
		if err != nil {
			return done, err
		}
		return done, c.Cancel(ctx, submitted.ID)
	}
	if _, err := run(); err != nil { // fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if st.CacheHits != st.Total {
			b.Fatalf("cached job hit the cache %d of %d times", st.CacheHits, st.Total)
		}
	}
}
