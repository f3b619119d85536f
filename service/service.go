// Package service turns the sweep engine into a long-lived experiment
// farm: a sweep-as-a-service HTTP server that accepts serialized
// patch.Matrix jobs, streams replica-granular progress, and serves
// emitter output in any format of its fixed table (LookupFormat).
//
// The design cashes in the determinism contract the engine already
// guarantees (a configuration's results are byte-identical wherever
// and whenever they run) three times over:
//
//   - A content-addressed result cache keyed by Config.Fingerprint()
//     makes repeated work free and exact: overlapping cells across
//     concurrent jobs hit the cache instead of the simulator, and its
//     files (checksummed, so truncated or poisoned entries are
//     recomputed rather than served) survive restarts.
//
//   - Remote workers claim replica ranges over the same HTTP API and
//     post results back; because the per-cell reduce is
//     position-indexed, the merged output is byte-identical to a
//     single-machine run no matter how the replicas were distributed.
//
//   - A durable job store (JobStore) persists job specs at admission
//     and journals each completed replica through the same
//     checksummed atomic-write machinery as the cache, so a restarted
//     (or crashed) server reloads its jobs and resumes each from the
//     last journaled replica — with output byte-identical to an
//     uninterrupted run.
//
// The server runs at most Config.MaxJobs jobs at once and admits the
// rest from one FIFO queue. It offers optional bearer-token
// authentication on the mutating endpoints, worker heartbeats that
// extend claim leases, per-job cancellation, and graceful drain on
// shutdown. The result cache has one bound, a byte cap with
// least-recently-accessed eviction.
package service
