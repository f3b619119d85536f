// Package service turns the sweep engine into a long-lived experiment
// server: a sweep-as-a-service HTTP server that accepts serialized
// patch.Matrix jobs, runs each as one patch.Sweep, streams
// replica-granular progress, and serves emitter output in any format
// of its fixed table (LookupFormat).
//
// The design cashes in the determinism contract the engine already
// guarantees (a configuration's results are byte-identical wherever
// and whenever they run) twice over:
//
//   - A content-addressed result cache keyed by Config.Fingerprint()
//     makes repeated work free and exact: overlapping cells across
//     concurrent jobs hit the cache instead of the simulator, and its
//     files (checksummed, so truncated or poisoned entries are
//     recomputed rather than served) survive restarts.
//
//   - A durable job store (JobStore) persists job specs at admission
//     and journals each completed replica through the same
//     checksummed atomic-write machinery as the cache, so a restarted
//     (or crashed) server reloads its jobs and resumes each from the
//     last journaled replica — with output byte-identical to an
//     uninterrupted run.
//
// Each pool worker of a job's sweep runs a replica through a runner
// that first serves it from the journal a restart read back, then from
// the result cache, and simulates only what neither holds. The sweep's
// progress callback journals, counts and streams every completion, and
// the per-cell reduce is position-indexed, so the served output is
// byte-identical to a local Sweep of the same matrix.
//
// The server runs at most Config.MaxJobs jobs at once and admits the
// rest from one FIFO queue. It offers optional bearer-token
// authentication on the mutating endpoints, per-job cancellation, and
// graceful drain on shutdown. The result cache has one bound, a byte
// cap with least-recently-accessed eviction.
package service
