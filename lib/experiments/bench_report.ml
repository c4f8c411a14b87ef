module Trace = Msp430.Trace
module Platform = Msp430.Platform
module Energy = Msp430.Energy
module Json = Observe.Json

(* Machine-readable benchmark report (bench/report.json).

   Runs the Table-2 configurations — every requested benchmark under
   the unified-memory baseline, SwapRAM and the block cache at a given
   frequency — with the profiling stack attached, and renders the
   results under a stable, versioned schema for CI artifact upload and
   downstream tooling. The schema is documented in EXPERIMENTS.md;
   bump [schema_version] on any breaking change.

   Schema v2 adds the per-system "metrics" object (windowed
   cache-dynamics time series + miss-ratio curve from the
   {!Observe.Metrics} sampler) and a slim rendering mode used for the
   committed bench/baseline.json: slim reports keep every scalar the
   perf-regression gate compares but drop the bulky time-series and
   attribution payloads.

   Schema v3 adds the "swapram_pgo" system: the measured run of the
   profile-guided rebuild, with a "pgo" object describing the
   placement (budget, pinned set, FRAM-resident set). *)

(* Schema v5 (v4 was never released) adds the optional top-level
   "campaign" object: aggregate statistics of a Monte-Carlo
   fault-injection campaign (per-cell survivability rates with Wilson
   intervals). The object is produced by the caller — the campaign
   engine lives above this library — and passed in verbatim via
   [?campaign]; reports without one simply omit the member, so the
   perf gate and the slim baseline are unaffected. *)

(* Schema v7 adds the top-level "dse" object: a design-space
   exploration over (workload x SRAM budget x eviction policy x block
   size x frequency), rendered by {!Dse.json}. The deterministic
   members (grid, per-workload Pareto frontiers, global frontier,
   point/sim counts) appear in slim and full reports alike and are a
   pure function of (seed, benchmarks) — the compare gate fails on any
   frontier drift against the committed baseline. *)

(* Schema v8 removes every host-dependent member: the per-system
   "host_seconds" stamps, the "host" and "replay" objects, and the
   dse object's memo-store provenance and wall-clock members. A
   report is now a pure function of (seed, benchmarks, frequency,
   campaign), so two renderings of one configuration — serial or
   parallel, telemetry on or off — are byte-identical. Host speed is
   measured by the benchmark in perfbench/. *)

let schema_version = 8

let frequency_hz = function
  | Platform.Mhz8 -> 8_000_000
  | Platform.Mhz24 -> 24_000_000

let params_for = function
  | Platform.Mhz8 -> Energy.point_8mhz
  | Platform.Mhz24 -> Energy.point_24mhz

let top_functions ~params ~(obs : Toolchain.observation) n =
  let rows = Observe.Profiler.rows ~params obs.Toolchain.o_profiler in
  let total =
    max 1 (Observe.Profiler.cycles_of (Observe.Profiler.totals obs.Toolchain.o_profiler))
  in
  List.filteri (fun i _ -> i < n) rows
  |> List.map (fun (r : Observe.Profiler.row) ->
         Json.Obj
           [
             ("name", Json.String r.Observe.Profiler.name);
             ("cycles", Json.Int (Observe.Profiler.cycles_of r.Observe.Profiler.c));
             ( "share",
               Json.Float
                 (float_of_int (Observe.Profiler.cycles_of r.Observe.Profiler.c)
                 /. float_of_int total) );
             ("energy_nj", Json.Float r.Observe.Profiler.energy_nj);
           ])

let swapram_stats_json (s : Swapram.Runtime.stats) =
  Json.Obj
    [
      ("misses", Json.Int s.Swapram.Runtime.misses);
      ("aborts", Json.Int s.Swapram.Runtime.aborts);
      ("too_large", Json.Int s.Swapram.Runtime.too_large);
      ("frozen_misses", Json.Int s.Swapram.Runtime.frozen_misses);
      ("evictions", Json.Int s.Swapram.Runtime.evictions);
      ("words_copied", Json.Int s.Swapram.Runtime.words_copied);
      ("placement_retries", Json.Int s.Swapram.Runtime.placement_retries);
      ("prefetches", Json.Int s.Swapram.Runtime.prefetches);
      ("pins", Json.Int s.Swapram.Runtime.pins);
    ]

let block_stats_json (s : Blockcache.Runtime.stats) =
  Json.Obj
    [
      ("misses", Json.Int s.Blockcache.Runtime.misses);
      ("block_loads", Json.Int s.Blockcache.Runtime.block_loads);
      ("chains", Json.Int s.Blockcache.Runtime.chains);
      ("flushes", Json.Int s.Blockcache.Runtime.flushes);
      ("returns", Json.Int s.Blockcache.Runtime.returns);
      ("hash_probes", Json.Int s.Blockcache.Runtime.hash_probes);
      ("words_copied", Json.Int s.Blockcache.Runtime.words_copied);
    ]

let window_json metrics (w : Observe.Metrics.window) =
  Json.Obj
    [
      ("start", Json.Int w.Observe.Metrics.w_start);
      ("unstalled", Json.Int w.Observe.Metrics.w_unstalled);
      ("stall", Json.Int w.Observe.Metrics.w_stall);
      ("instrs", Json.Int w.Observe.Metrics.w_instrs);
      ("fram_read_hits", Json.Int w.Observe.Metrics.w_fram_read_hits);
      ("fram_read_misses", Json.Int w.Observe.Metrics.w_fram_read_misses);
      ("fram_writes", Json.Int w.Observe.Metrics.w_fram_writes);
      ("sram_accesses", Json.Int w.Observe.Metrics.w_sram_accesses);
      ("misses", Json.Int (Observe.Metrics.window_misses w));
      ("evictions", Json.Int w.Observe.Metrics.w_evictions);
      ("freezes", Json.Int w.Observe.Metrics.w_freezes);
      ("flushes", Json.Int w.Observe.Metrics.w_flushes);
      ("block_loads", Json.Int w.Observe.Metrics.w_block_loads);
      ("prefetches", Json.Int w.Observe.Metrics.w_prefetches);
      ("occupancy", Json.Int w.Observe.Metrics.w_occupancy);
      ( "energy_nj",
        Json.Float (Observe.Metrics.window_energy metrics w).Observe.Metrics.e_total
      );
    ]

let mrc_json metrics =
  match Observe.Metrics.reuse_tracker metrics with
  | None -> Json.Null
  | Some r ->
      let spec = Observe.Metrics.spec metrics in
      let budget = spec.Observe.Metrics.config_budget in
      let granularity =
        match spec.Observe.Metrics.reuse with
        | Observe.Metrics.Functions -> "function"
        | Observe.Metrics.Lines n -> Printf.sprintf "line-%d" n
        | Observe.Metrics.No_reuse -> "none"
      in
      Json.Obj
        [
          ("granularity", Json.String granularity);
          ("accesses", Json.Int (Observe.Reuse.accesses r));
          ("units", Json.Int (Observe.Reuse.units r));
          ("footprint_bytes", Json.Int (Observe.Reuse.footprint r));
          ("measured_misses", Json.Int (Observe.Reuse.measured_misses r));
          ("measured_miss_rate", Json.Float (Observe.Reuse.measured_miss_rate r));
          ("config_budget", Json.Int budget);
          ( "predicted_at_config",
            if budget > 0 then
              Json.Float (Observe.Reuse.predicted_miss_rate r ~budget)
            else Json.Null );
          ( "points",
            Json.List
              (List.map
                 (fun (b, rate) ->
                   Json.Obj
                     [
                       ("budget", Json.Int b);
                       ("predicted_miss_rate", Json.Float rate);
                     ])
                 (Observe.Reuse.curve r
                    ~budgets:Observe.Metrics.default_budgets)) );
        ]

let metrics_json metrics =
  Json.Obj
    [
      ( "window_cycles",
        Json.Int (Observe.Metrics.spec metrics).Observe.Metrics.window_cycles );
      ( "windows",
        Json.List
          (List.map (window_json metrics) (Observe.Metrics.windows metrics)) );
      ("mrc", mrc_json metrics);
    ]

let completed_json ~params ~slim (r : Toolchain.result) =
  let stats = r.Toolchain.stats in
  let fram_reads = stats.Trace.fram_ifetch + stats.Trace.fram_data_reads in
  let hit_rate =
    if fram_reads = 0 then 0.0
    else float_of_int stats.Trace.fram_read_hits /. float_of_int fram_reads
  in
  let miss_handler_share =
    match r.Toolchain.observation with
    | Some obs ->
        Json.Float
          (Observe.Profiler.source_share obs.Toolchain.o_profiler Trace.Handler
          +. Observe.Profiler.source_share obs.Toolchain.o_profiler Trace.Memcpy)
    | None -> Json.Null
  in
  let top =
    match r.Toolchain.observation with
    | Some obs when not slim -> Json.List (top_functions ~params ~obs 5)
    | Some _ | None -> Json.Null
  in
  let metrics =
    match r.Toolchain.observation with
    | Some { Toolchain.o_metrics = Some m; _ } when not slim -> metrics_json m
    | _ -> Json.Null
  in
  let runtime =
    match (r.Toolchain.swapram_stats, r.Toolchain.block_stats) with
    | Some s, _ -> swapram_stats_json s
    | None, Some s -> block_stats_json s
    | None, None -> Json.Null
  in
  Json.Obj
    [
      ("status", Json.String "completed");
      ("cycles", Json.Int (Trace.total_cycles stats));
      ("unstalled_cycles", Json.Int stats.Trace.unstalled_cycles);
      ("stall_cycles", Json.Int stats.Trace.stall_cycles);
      ("instructions", Json.Int stats.Trace.instructions);
      ("fram_accesses", Json.Int (Trace.fram_accesses stats));
      ("sram_accesses", Json.Int (Trace.sram_accesses stats));
      ("hwcache_hit_rate", Json.Float hit_rate);
      ("energy_nj", Json.Float r.Toolchain.energy.Energy.energy_nj);
      ("time_s", Json.Float r.Toolchain.energy.Energy.time_s);
      ("return_value", Json.Int r.Toolchain.return_value);
      ("code_bytes", Json.Int r.Toolchain.sizes.Toolchain.code_bytes);
      ("data_bytes", Json.Int r.Toolchain.sizes.Toolchain.data_bytes);
      ("miss_handler_share", miss_handler_share);
      ("runtime", runtime);
      ("top_functions", top);
      ("metrics", metrics);
    ]

let outcome_json ~params ~slim = function
  | Toolchain.Completed r -> completed_json ~params ~slim r
  | Toolchain.Crashed o ->
      Json.Obj
        [
          ("status", Json.String "crashed");
          ("reason", Json.String (Report.outcome_cell o));
        ]
  | Toolchain.Did_not_fit msg ->
      Json.Obj
        [ ("status", Json.String "did-not-fit"); ("reason", Json.String msg) ]

let pgo_json ~params ~slim (e : Sweep.pgo_entry) =
  match e.Sweep.pgo with
  | Error reason ->
      Json.Obj
        [ ("status", Json.String "error"); ("reason", Json.String reason) ]
  | Ok r -> (
      let placement = r.Toolchain.pg_placement in
      let names l = Json.List (List.map (fun n -> Json.String n) l) in
      let descr =
        ( "pgo",
          Json.Obj
            [
              ("budget", Json.Int placement.Swapram.Pgo.pl_budget);
              ("pinned", names placement.Swapram.Pgo.pl_pinned);
              ("fram_resident", names placement.Swapram.Pgo.pl_fram_resident);
            ] )
      in
      match outcome_json ~params ~slim r.Toolchain.pg_measured with
      | Json.Obj kvs -> Json.Obj (kvs @ [ descr ])
      | j -> j)

(* --- v7 "dse" object: Pareto design-space exploration -------------------- *)

(* The report grid: the default axes with the budget axis coarsened to
   64 B steps — still >= 20k evaluated points over the suite, at half
   the simulation cost of {!Dse.default_grid}. Both the slim baseline
   and the full report use this exact grid, so the compare gate can
   diff frontiers point-for-point. *)
let dse_report_grid =
  let rec budgets acc b = if b < 512 then acc else budgets (b :: acc) (b - 64) in
  { Dse.default_grid with Dse.g_budgets = budgets [] 16384 }

let dse_json ~seed ~jobs benchmarks =
  let dir = Filename.temp_file "swapram-dse" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Dse.record_workloads ~seed ~benchmarks ~jobs ~dir () with
  | Error e -> failwith ("bench report: dse recording failed: " ^ e)
  | Ok workloads -> (
      match Dse.run ~jobs dse_report_grid workloads with
      | Error e -> failwith ("bench report: dse evaluation failed: " ^ e)
      | Ok outcome -> Dse.json ~slim:true dse_report_grid outcome)

let compute ?(seed = 1) ?benchmarks ?(frequency = Platform.Mhz24) ?(slim = false)
    ?jobs ?campaign () =
  let params = params_for frequency in
  let jobs = Sweep.resolve_jobs jobs in
  let sweep =
    Sweep.compute ~seed ?benchmarks ~observe:Toolchain.metrics_observe
      ~frequency ~jobs ()
  in
  let pgo =
    Sweep.compute_pgo ~seed ?benchmarks ~observe:Toolchain.metrics_observe
      ~frequency ~jobs ()
  in
  let suite =
    match benchmarks with Some bs -> bs | None -> Workloads.Suite.all
  in
  (* The "dse" object is the same in slim and full reports: its
     members are what the frontier-drift gate compares. *)
  let dse = dse_json ~seed ~jobs suite in
  Json.Obj
    ([
      ("schema_version", Json.Int schema_version);
      ("seed", Json.Int seed);
      ("frequency_hz", Json.Int (frequency_hz frequency));
      ( "benchmarks",
        Json.List
          (List.map
             (fun (e : Sweep.entry) ->
               let name = e.Sweep.benchmark.Workloads.Bench_def.name in
               let pgo_cell =
                 List.find_map
                   (fun (p : Sweep.pgo_entry) ->
                     if
                       p.Sweep.pgo_benchmark.Workloads.Bench_def.name = name
                     then Some (pgo_json ~params ~slim p)
                     else None)
                   pgo
               in
               Json.Obj
                 [
                   ("name", Json.String name);
                   ( "systems",
                     Json.Obj
                       ([
                          ( "baseline",
                            outcome_json ~params ~slim
                              (Toolchain.Completed e.Sweep.baseline) );
                          ("swapram", outcome_json ~params ~slim e.Sweep.swapram);
                          ("block", outcome_json ~params ~slim e.Sweep.block);
                        ]
                       @
                       match pgo_cell with
                       | Some cell -> [ ("swapram_pgo", cell) ]
                       | None -> []) );
                 ])
             sweep) );
    ]
    @ (match campaign with
      | Some c -> [ ("campaign", (c : Json.t)) ]
      | None -> [])
    @ [ ("dse", dse) ])

let write ?seed ?benchmarks ?frequency ?slim ?jobs ?campaign path =
  let json = compute ?seed ?benchmarks ?frequency ?slim ?jobs ?campaign () in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc
