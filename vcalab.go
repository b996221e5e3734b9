// Package vcalab is a laboratory for measuring the performance and network
// utilization of video conferencing applications, reproducing MacMillan,
// Mangla, Saxon and Feamster, "Measuring the Performance and Network
// Utilization of Popular Video Conferencing Applications" (IMC 2021).
//
// The library contains mechanism-faithful models of Zoom, Google Meet and
// Microsoft Teams (congestion control, simulcast/SVC encoding, relay-server
// behaviour) running over a deterministic discrete-event network emulator,
// plus the paper's complete experiment harness: static shaping sweeps,
// transient disruptions, competition against TCP/Netflix/YouTube, and
// multi-party call modalities.
//
// # Quickstart
//
//	eng := vcalab.NewEngine(42)
//	// C1 behind a 1 Mbps symmetric access link, C2 and the SFU beyond it.
//	_, call := vcalab.NewLabCall(eng, vcalab.Zoom(), 2, 1e6, 1e6,
//	    vcalab.CallOptions{Seed: 42})
//	call.Start()
//	eng.RunUntil(150 * time.Second)
//	call.Stop()
//	fmt.Printf("upstream: %.2f Mbps\n",
//	    call.C1().UpMeter.MeanRateMbps(30*time.Second, 150*time.Second))
//
// Higher-level experiment runners (RunStatic, RunDisruption,
// RunCompetition, RunModality) regenerate every table and figure of the
// paper, and Figures lists them; see EXPERIMENTS.md for the index.
package vcalab

import (
	"vcalab/internal/cascade"
	"vcalab/internal/experiment"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/scenario"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// Core simulation types.
type (
	// Engine is the deterministic discrete-event scheduler everything
	// runs on.
	Engine = sim.Engine
	// Host is a network endpoint; Lab creates them wired into the
	// testbed topology.
	Host = netem.Host
	// Link is a shaped network hop.
	Link = netem.Link
	// LinkConfig describes one direction of a wire (rate, delay, queue,
	// impairments) — used by cascade topologies and custom labs.
	LinkConfig = netem.LinkConfig
)

// NewEngine creates a simulation engine; equal seeds give identical runs.
func NewEngine(seed int64) *Engine { return sim.New(seed) }

// Heterogeneous last-mile link models (internal/netem): Gilbert–Elliott
// bursty loss (WiFi) and bufferbloat with optional CoDel AQM, installed
// by a ScenarioModel event. Each model owns its seeded randomness, so
// installing one never perturbs the engine's shared stream. A cellular
// (LTE/5G) last mile is a scenario timeline: a ScenarioTrace of capacity
// steps plus pause/resume shapes.
type (
	// LossModel is a stateful per-packet loss process for Link.SetLossModel.
	LossModel = netem.LossModel
	// GEConfig parameterizes the Gilbert–Elliott loss chain.
	GEConfig = netem.GEConfig
	// BloatConfig describes a bufferbloated hop (deep queue, optional AQM).
	BloatConfig = netem.BloatConfig
)

var (
	// WiFiBursty parameterizes GE for a target loss rate and burst length.
	WiFiBursty = netem.WiFiBursty
	// ApplyBloat reconfigures a rate-limited link as a bufferbloated hop.
	ApplyBloat = netem.ApplyBloat
)

// VCA modelling types.
type (
	// Profile is a complete VCA calibration (client + server behaviour).
	Profile = vca.Profile
	// Call is a running conference.
	Call = vca.Call
	// CallOptions configure viewing mode and seeding.
	CallOptions = vca.CallOptions
	// Client is one call participant with its meters and stats recorder.
	Client = vca.Client
	// ViewMode selects gallery or speaker viewing (§6).
	ViewMode = vca.ViewMode
)

// Viewing modes.
const (
	Gallery = vca.Gallery
	Speaker = vca.Speaker
)

// Profiles for the five clients the paper studies.
var (
	Meet        = vca.Meet
	Zoom        = vca.Zoom
	Teams       = vca.Teams
	TeamsChrome = vca.TeamsChrome
	ZoomChrome  = vca.ZoomChrome
	// Profiles returns all five keyed by name.
	Profiles = vca.Profiles
)

// NewCall assembles a conference between client hosts through an SFU host.
var NewCall = vca.NewCall

// Cascaded multi-SFU subsystem (internal/cascade): geo-distributed relay
// meshes where each region runs its own SFU and media crosses each
// inter-region link once per origin.
type (
	// CascadeTopology describes regions, the one configuration every
	// inter-region link shares and the client→home-region assignment.
	CascadeTopology = cascade.Topology
	// CascadeRegion is one SFU site and its homed clients.
	CascadeRegion = cascade.Region
	// CascadeMesh is a built multi-router cascade lab; Mesh.NewCall
	// assembles a conference across its per-region SFUs.
	CascadeMesh = cascade.Mesh
)

var (
	// BuildCascade wires a cascade topology into a multi-router lab.
	BuildCascade = cascade.Build
	// CascadeAssign spreads n clients round-robin across regions.
	CascadeAssign = cascade.Assign
)

// Dynamic-scenario subsystem (internal/scenario): declarative,
// deterministic event timelines — participant churn waves, per-link
// capacity/delay/loss traces, mid-call layout reshapes — bound to a
// running call and driven through pooled engine events.
type (
	// Scenario is a named, ordered event timeline (pure data).
	Scenario = scenario.Scenario
	// ScenarioEvent is one timeline entry; build with ScenarioLeave,
	// ScenarioRejoin, ScenarioMode, ScenarioShape or ScenarioTrace.
	ScenarioEvent = scenario.Event
	// ScenarioTimeline is a scenario bound to an engine, call and
	// topology.
	ScenarioTimeline = scenario.Timeline
	// LinkShape is one link reconfiguration (rate/delay/loss aspects).
	LinkShape = scenario.Shape
	// ScenarioLinkRef names a link of the bound topology declaratively.
	ScenarioLinkRef = scenario.LinkRef
	// LinkResolver maps ScenarioLinkRefs to concrete links: MeshLinks
	// over a cascade mesh, or a *Lab itself.
	LinkResolver = scenario.LinkResolver
	// LinkTraceStep is one segment of a per-link capacity trace.
	LinkTraceStep = scenario.TraceStep
	// LinkModelSpec declaratively installs a last-mile link model.
	LinkModelSpec = scenario.LinkModelSpec
	// LinkModelKind selects which model a LinkModelSpec installs.
	LinkModelKind = scenario.LinkModelKind
	// GenScenarioConfig bounds the seeded scenario generator's space.
	GenScenarioConfig = scenario.GenConfig
	// ScenarioViolation is one failed invariant of a fuzz replay
	// (FuzzFailure.Violations).
	ScenarioViolation = scenario.Violation
)

// Scenario link-target kinds (ScenarioLinkRef.Kind).
const (
	LinkClientUp   = scenario.LinkClientUp
	LinkClientDown = scenario.LinkClientDown
	LinkInter      = scenario.LinkInter
	LinkInterPair  = scenario.LinkInterPair
	LinkInterAll   = scenario.LinkInterAll
)

// Link-model kinds (LinkModelSpec.Kind).
const (
	ModelNone  = scenario.ModelNone
	ModelGE    = scenario.ModelGE
	ModelBloat = scenario.ModelBloat
)

var (
	// NewScenarioTimeline binds a scenario; Start it before (or after)
	// Call.Start.
	NewScenarioTimeline = scenario.New
	// MeshLinks resolves scenario link refs against a built cascade mesh.
	MeshLinks = scenario.MeshLinks
	// Scenario event constructors.
	ScenarioLeave  = scenario.Leave
	ScenarioRejoin = scenario.Rejoin
	ScenarioMode   = scenario.Mode
	ScenarioShape  = scenario.ShapeLink
	ScenarioTrace  = scenario.Trace
	// ScenarioModel returns an event installing a last-mile link model.
	ScenarioModel = scenario.ModelLink
	// CannedScenario instantiates a canned scenario by name;
	// CannedScenarioNames lists them.
	CannedScenario      = scenario.Canned
	CannedScenarioNames = scenario.CannedNames
	// GenerateScenario composes a seed-deterministic random scenario from
	// churn, reshape, partition and link-model motifs.
	GenerateScenario = scenario.Generate
)

// Experiment harness.
type (
	// Lab is the paper's testbed topology (§2.2 / Fig 7).
	Lab = experiment.Lab
	// Direction selects the shaped side of the access link.
	Direction = experiment.Direction

	// StaticConfig/StaticResult drive §3 (Figs 1-3, Table 2).
	StaticConfig = experiment.StaticConfig
	StaticResult = experiment.StaticResult
	// DisruptionConfig/DisruptionResult drive §4 (Figs 4-6).
	DisruptionConfig = experiment.DisruptionConfig
	DisruptionResult = experiment.DisruptionResult
	// CompetitionConfig/CompetitionResult drive §5 (Figs 8-14).
	CompetitionConfig = experiment.CompetitionConfig
	CompetitionResult = experiment.CompetitionResult
	CompetitorKind    = experiment.CompetitorKind
	// ModalityConfig/ModalityResult drive §6 (Fig 15).
	ModalityConfig = experiment.ModalityConfig
	ModalityResult = experiment.ModalityResult
	// Figure/FigureResults: one of the 17 artifacts Figures lists.
	Figure        = experiment.Figure
	FigureResults = experiment.Results
	// ImpairmentConfig/ImpairmentResult drive the §8 extension: random
	// loss and jitter on an unconstrained link.
	ImpairmentConfig = experiment.ImpairmentConfig
	ImpairmentResult = experiment.ImpairmentResult
	// ScaleConfig/ScaleResult drive the cascaded large-call sweep
	// (participants × regions × inter-region capacity).
	ScaleConfig = experiment.ScaleConfig
	ScaleResult = experiment.ScaleResult
	// DynamicConfig/DynamicResult drive the dynamic-scenario workload:
	// one scenario timeline replayed against a cascaded call, reporting
	// freeze ratio, per-event recovery time and latency percentiles.
	DynamicConfig = experiment.DynamicConfig
	DynamicResult = experiment.DynamicResult
	// FuzzConfig/FuzzResult drive the scenario-fuzz smoke: N seeded
	// generated scenarios replayed through the invariant harness.
	FuzzConfig  = experiment.FuzzConfig
	FuzzResult  = experiment.FuzzResult
	FuzzFailure = experiment.FuzzFailure
)

// Observability (internal/obs): a ring-buffer tracer of typed sim-time
// events. Engine.SetTracer attaches one to an engine, and everything that
// runs there records into it; attaching one never changes experiment
// output. Sampled metrics are captured per trial through SetCapture.
type (
	// Tracer records packet/CC/switch/scenario/churn events into a
	// fixed-capacity ring exportable as JSONL.
	Tracer = obs.Tracer
	// TraceEvent is one traced record; TraceEventKind its taxonomy.
	TraceEvent     = obs.Event
	TraceEventKind = obs.EventKind
	// ObsConfig enables per-trial capture (see SetCapture, and
	// DynamicConfig.Obs for one run).
	ObsConfig = experiment.ObsConfig
)

// NewTracer builds a tracer holding the last n events (n <= 0 uses the
// package default capacity).
var NewTracer = obs.NewTracer

// Traced event kinds.
const (
	EvEnqueue  = obs.EvEnqueue
	EvDequeue  = obs.EvDequeue
	EvDrop     = obs.EvDrop
	EvDeliver  = obs.EvDeliver
	EvCC       = obs.EvCC
	EvSwitch   = obs.EvSwitch
	EvScenario = obs.EvScenario
	EvChurn    = obs.EvChurn
)

// Directions.
const (
	Uplink   = experiment.Uplink
	Downlink = experiment.Downlink
)

// Competitor kinds for RunCompetition.
const (
	CompVCA     = experiment.CompVCA
	CompIPerf   = experiment.CompIPerf
	CompNetflix = experiment.CompNetflix
	CompYouTube = experiment.CompYouTube
)

// Parallel sweeps. Every Run* fans its independent trials across a
// worker pool (one fresh single-threaded Engine per trial, per-trial
// seeds, results in input order), so parallel output is byte-identical to
// sequential. The knobs below set every sweep's parallelism, progress
// hook and capture, process-wide.
var (
	// SetDefaultParallelism sets the trial parallelism of every sweep
	// (1 = sequential, n <= 0 restores GOMAXPROCS).
	SetDefaultParallelism = experiment.SetDefaultParallelism
	// SetProgress installs a per-trial progress hook for all sweeps.
	SetProgress = experiment.SetProgress
	// SetCapture installs the -trace/-metrics capture of every sweep and
	// returns the first write error since the previous call.
	SetCapture = experiment.SetCapture
)

// Topology and experiment constructors/runners.
var (
	NewLab         = experiment.NewLab
	NewLabCall     = experiment.NewLabCall
	RunStatic      = experiment.RunStatic
	RunDisruption  = experiment.RunDisruption
	RunCompetition = experiment.RunCompetition
	RunModality    = experiment.RunModality
	RunImpairment  = experiment.RunImpairment
	RunScale       = experiment.RunScale
	RunDynamic     = experiment.RunDynamic
	RunFuzz        = experiment.RunFuzz
	ModalitySweep  = experiment.ModalitySweep
	Table2         = experiment.Table2
	Figures        = experiment.Figures

	// Paper parameter grids.
	PaperCaps             = experiment.PaperCaps
	PaperDisruptionLevels = experiment.PaperDisruptionLevels
	PaperCompetitionLinks = experiment.PaperCompetitionLinks

	// Formatters for paper-style output.
	PrintStatic          = experiment.PrintStatic
	PrintTable2          = experiment.PrintTable2
	PrintDisruption      = experiment.PrintDisruption
	PrintDisruptionTrace = experiment.PrintDisruptionTrace
	PrintCompetition     = experiment.PrintCompetition
	PrintModality        = experiment.PrintModality
	PrintImpairment      = experiment.PrintImpairment
	PrintScale           = experiment.PrintScale
	PrintDynamic         = experiment.PrintDynamic
	PrintFuzz            = experiment.PrintFuzz
)

// Topology delays of the hosts Lab.RemoteHost adds (re-exported from the
// experiment package).
const (
	RemoteDelay = experiment.RemoteDelay
	SFUDelay    = experiment.SFUDelay
)

// Measurement types.
type (
	// Series is a time-indexed sample sequence.
	Series = stats.Series
	// Summary aggregates repeated measurements with 90% CIs.
	Summary = stats.Summary
	// Meter converts byte arrivals into bitrate series (Client.UpMeter,
	// Client.DownMeter).
	Meter = stats.Meter
)

// Statistics helpers.
var (
	Median    = stats.Median
	Mean      = stats.Mean
	Summarize = stats.Summarize
	Share     = stats.Share
)
