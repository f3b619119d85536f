package analysis

// Repository package paths the contracts bind to. The root package is
// "patch" (the module path); determinism applies to its sweep engine
// file only — options/emitters run host-side where the wall clock is
// legitimate.
const (
	modulePath      = "patch"
	pkgEvent        = "patch/internal/event"
	pkgSim          = "patch/internal/sim"
	pkgInterconnect = "patch/internal/interconnect"
	pkgProtocolTree = "patch/internal/protocol/..."
	pkgProtocol     = "patch/internal/protocol"
	pkgMsg          = "patch/internal/msg"
	pkgCore         = "patch/internal/core"
	pkgService      = "patch/service"
	pkgInternalTree = "patch/internal/..."
	pkgExperiments  = "patch/internal/experiments"
	pkgLitmus       = "patch/internal/litmus"
	pkgFault        = "patch/internal/fault"
	pkgCache        = "patch/internal/cache"
	pkgToken        = "patch/internal/token"
	pkgDirectory    = "patch/internal/directory"
)

// PatchSuite returns the analyzers configured for this repository's
// contracts; cmd/patchlint runs exactly this set.
func PatchSuite() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DeterminismConfig{
			Scope: Scope{
				Paths: []string{
					modulePath, pkgSim, pkgEvent, pkgInterconnect, pkgProtocolTree, pkgCore,
					// Reporting/aggregation paths: map-range order here
					// reaches figure output and axiom error selection.
					pkgExperiments, pkgLitmus,
					// Fault injection must be exactly as deterministic as
					// the engine it perturbs.
					pkgFault,
					// Cache iteration order reaches the audit, the
					// forensics and the end-of-run checks.
					pkgCache,
					// The conservation error reaches the end-of-run
					// check and the audit failures.
					pkgToken,
					// Home-entry order reaches Quiesced, the queue-depth
					// bound, write serialisation and the forensics, and
					// the deactivation commit lives here.
					pkgDirectory,
				},
				Files: map[string][]string{
					// Of the root package, only the sweep engine feeds
					// simulation results; validation and emitters are
					// host-side.
					modulePath: {"sweep.go"},
				},
			},
		}),
		NewSteadyState(),
		NewWirecheck(WirecheckConfig{
			Scope:        Scope{Paths: []string{modulePath, pkgService}},
			ModulePrefix: modulePath,
		}),
		NewPoolpair(PoolpairConfig{
			Scope: Scope{Paths: []string{pkgInternalTree}},
			Seams: []Seam{
				{
					Name: "msg",
					Acquires: []FuncRef{
						{Pkg: pkgMsg, Recv: "Pool", Name: "New"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "NewMessage"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "Msg"},
					},
					Releases: []FuncRef{
						{Pkg: pkgMsg, Recv: "Pool", Name: "Release"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Release"},
					},
					Sinks: []FuncRef{
						// Sending transfers ownership: the network
						// releases the message at delivery.
						{Pkg: pkgProtocol, Recv: "Base", Name: "Send"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "SendAfter"},
						{Pkg: pkgProtocol, Recv: "Base", Name: "Multicast"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Send"},
						{Pkg: pkgInterconnect, Recv: "Network", Name: "Multicast"},
					},
				},
				{
					Name: "freelist",
					Acquires: []FuncRef{
						{Pkg: pkgProtocol, Recv: "FreeList", Name: "Get"},
					},
					Releases: []FuncRef{
						{Pkg: pkgProtocol, Recv: "FreeList", Name: "Put"},
					},
					Sinks: []FuncRef{
						// Scheduling a pooled task hands it to the
						// engine until it fires.
						{Pkg: pkgEvent, Recv: "Engine", Name: "At"},
						{Pkg: pkgEvent, Recv: "Engine", Name: "After"},
					},
				},
				{
					Name: "mshr",
					Acquires: []FuncRef{
						{Pkg: pkgProtocol, Recv: "MSHRs", Name: "Acquire"},
					},
					Releases: []FuncRef{
						{Pkg: pkgProtocol, Recv: "MSHRs", Name: "Release"},
					},
					Sinks: []FuncRef{
						// Registering a miss hands it to the table,
						// which holds it until Release.
						{Pkg: pkgProtocol, Recv: "MSHRs", Name: "Add"},
					},
				},
			},
		}),
	}
}
