package service

import (
	"context"

	"patch"
)

// SetRunnerFactory replaces the simulating runner behind each pool
// worker of the jobs srv starts after the call. f receives the job's
// context, so a runner that holds a replica can return once its job is
// cancelled.
func SetRunnerFactory(srv *Server, f func(ctx context.Context) patch.Runner) {
	srv.newRunner = f
}

// OpenJournals counts the job journals st holds open.
func OpenJournals(st *JobStore) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.journals)
}
