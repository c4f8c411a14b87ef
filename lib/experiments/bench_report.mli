(** Machine-readable benchmark report ([bench/report.json]): the
    Table-2 configurations (every benchmark under baseline / SwapRAM /
    block cache) run with the profiling stack attached, rendered under
    a stable versioned JSON schema for CI artifact upload. The schema
    is documented in EXPERIMENTS.md.

    Schema v2 embeds the {!Observe.Metrics} sampler's output per
    system: a "metrics" object with the per-window time series and the
    miss-ratio curve. Schema v3 adds the "swapram_pgo" system.

    Schema v5 (v4 was never released) adds the optional top-level
    "campaign" object — Monte-Carlo fault-injection campaign
    statistics rendered by [Faultinject.Campaign.to_json] and passed
    in verbatim via [?campaign] (that engine sits above this
    library). Schema v7 adds the top-level "dse" object ({!Dse.json}).

    Schema v8 removes every host wall-clock member (per-system
    "host_seconds", the "host" and "replay" objects, the dse object's
    provenance and timing members): a report is a pure function of
    its arguments, so two renderings of one configuration are
    byte-identical whatever the worker count or telemetry setting.
    Host speed is measured by the benchmark in perfbench/. *)

val schema_version : int

val compute :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?slim:bool ->
  ?jobs:int ->
  ?campaign:Observe.Json.t ->
  unit ->
  Observe.Json.t
(** [slim] (default false) drops the bulky "metrics" and
    "top_functions" payloads while keeping every scalar the
    perf-regression gate ({!Compare}) reads — the rendering committed
    as bench/baseline.json. [jobs] (default
    {!Sweep.set_default_jobs}) shards sweep cells across forked
    workers; it cannot change any simulated value. [campaign] is
    embedded as the top-level "campaign" member when given. *)

val write :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?slim:bool ->
  ?jobs:int ->
  ?campaign:Observe.Json.t ->
  string ->
  unit
(** Render {!compute} pretty-printed to the given path. *)
