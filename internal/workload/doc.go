// Package workload generates communication-request sequences used to drive
// self-adjusting topologies. All generators are deterministic for a given
// seed so experiments are reproducible.
//
// A request is a (source, destination) pair of node indices in [0, n). The
// generators cover the traffic classes the paper's introduction motivates:
// uniform (no skew to exploit), Zipf-skewed, repeated pairs, temporally
// local ("working set") traffic, community-clustered traffic, and an
// adversarial uniform permutation schedule. Suite returns the canonical
// battery used by the comparison experiments.
//
// Generators with tunable knobs also implement Parameterized, exposing
// their parameters as a map for machine-readable experiment output.
//
// Beyond static request sequences, the package generates dynamic
// workloads: a Trace is an ordered sequence of Events (Op = Route, Join,
// or Leave over node identifiers), produced by TraceGenerators that layer
// churn over any request generator — PoissonChurn (memoryless turnover),
// FlashCrowd (join bursts that dissipate a period later), and
// CorrelatedDepartures (key-adjacent group failures with recovery).
// NoChurn wraps a plain generator as the zero-churn baseline, and
// Trace.Validate replays a trace against a membership model to certify it
// is well-formed.
//
// Traces also cover the KV data plane: OpGet/OpPut/OpDelete/OpScan events
// drive versioned point and range operations, generated by KVMix — a
// YCSB-style operation mix (MixA, MixB, MixC, MixE, MixCRUD, or custom
// MixRatios via ParseMix) layered over any key-popularity generator.
package workload
