package main

import "strings"

// repoLayers maps every package of the patch module to the layer its
// CPU time is reported under. Layers are named after the module's
// packages; a test checks that this table and `go list patch/...`
// agree, so a new package cannot vanish into "other".
var repoLayers = map[string]string{
	"patch/internal/event": "event",

	"patch/internal/interconnect": "interconnect",
	"patch/internal/topology":     "interconnect",
	"patch/internal/msg":          "interconnect",

	"patch/internal/fault": "fault",

	"patch/internal/protocol":                "protocol",
	"patch/internal/core":                    "protocol",
	"patch/internal/protocol/directoryproto": "protocol",
	"patch/internal/protocol/tokenb":         "protocol",
	"patch/internal/predictor":               "protocol",
	"patch/internal/token":                   "protocol",

	"patch/internal/cache": "cache",

	"patch/internal/directory": "directory",
	"patch/internal/addrmap":   "directory",

	"patch/internal/workload": "workload",

	"patch/internal/sim":   "sim",
	"patch/internal/trace": "sim",

	// The root package is the sweep engine; its result statistics and
	// emitter tables run inside Sweep.
	"patch":                 "sweep",
	"patch/internal/stats":  "sweep",
	"patch/internal/report": "sweep",

	"patch/service": "service",

	// Tools and examples; none runs inside the benchmark.
	"patch/cmd/bench":                     "tools",
	"patch/cmd/experiments":               "tools",
	"patch/cmd/patchlint":                 "tools",
	"patch/cmd/patchsim":                  "tools",
	"patch/cmd/sweepd":                    "tools",
	"patch/cmd/tracecvt":                  "tools",
	"patch/examples/bandwidth_adaptivity": "tools",
	"patch/examples/inexact_directory":    "tools",
	"patch/examples/predictors":           "tools",
	"patch/examples/quickstart":           "tools",
	"patch/examples/race_tenure":          "tools",
	"patch/internal/analysis":             "tools",
	"patch/internal/experiments":          "tools",
	"patch/internal/litmus":               "tools",
}

// simLayers are the layers reported per simulated op on the sweep leg.
var simLayers = []string{"event", "interconnect", "fault", "protocol", "cache", "directory", "workload", "sim", "sweep", "runtime"}

// isRuntime reports whether pkg is part of the Go runtime proper.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

// benchPackage is the package name the benchmark's own frames carry.
const benchPackage = "main"

// layerOf classifies a frame's package for the sweep leg: a layer of
// the module, the Go runtime, or the benchmark itself. Other standard
// library packages are not recognised, so their time goes to the
// calling layer.
func layerOf(pkg string) (string, bool) {
	if l, ok := repoLayers[pkg]; ok {
		return l, true
	}
	switch {
	case isRuntime(pkg):
		return "runtime", true
	case pkg == benchPackage:
		return "bench", true
	}
	return "", false
}

// farmBuckets are the buckets reported per job on the farm leg.
var (
	farmCachedBuckets = []string{"service", "net_http", "json", "crypto", "syscall", "runtime"}
	farmColdBuckets   = []string{"simulator", "service", "runtime"}
)

// farmBucketOf classifies a frame's package for the farm leg, where the
// question is how a job's time splits between the simulator, the
// service and the standard library it leans on.
func farmBucketOf(pkg string) (string, bool) {
	if l, ok := repoLayers[pkg]; ok {
		if l == "service" {
			return "service", true
		}
		return "simulator", true
	}
	switch {
	case pkg == "encoding/json":
		return "json", true
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net_http", true
	case pkg == "syscall" || pkg == "os" || pkg == "internal/poll" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall", true
	case isRuntime(pkg):
		return "runtime", true
	case pkg == benchPackage:
		return "bench", true
	}
	return "", false
}
