(* Command-line driver: compile a mini-C program (a file or one of the
   bundled benchmarks), build it for a chosen caching system and
   memory placement, run it on the simulated MSP430FR2355 and report
   execution statistics.

   Examples:
     swapram_cli run --benchmark crc
     swapram_cli run --benchmark aes --system swapram --freq 8
     swapram_cli run --file prog.c --system block --placement standard
     swapram_cli asm --benchmark crc        # dump instrumented assembly
*)

module Platform = Msp430.Platform
module Trace = Msp430.Trace
module Toolchain = Experiments.Toolchain
module Json = Observe.Json

open Cmdliner

let ( let* ) = Result.bind

(* --- name tables, one per axis ------------------------------------------ *)

let systems =
  Toolchain.
    [
      ("baseline", Baseline);
      ("swapram", Swapram_cache Swapram.Config.default_options);
      ("block", Block_cache Blockcache.Config.default_options);
      ("checkpoint", Checkpoint_runtime Swapram.Checkpoint.default_options);
    ]

let placements =
  Toolchain.
    [
      ("unified", Unified);
      ("standard", Standard);
      ("code-sram", Code_sram);
      ("all-sram", All_sram);
      ("split", Split);
    ]

let frequencies = [ ("8", Platform.Mhz8); ("24", Platform.Mhz24) ]
let engines = Msp430.Cpu.[ ("superblock", Superblock); ("reference", Reference) ]

let lookup what table name =
  Option.to_result ~none:("unknown " ^ what ^ " " ^ name)
    (List.assoc_opt name table)

(* A converter for names a library already parses. *)
let named what of_string to_string =
  Arg.conv'
    ( (fun s ->
        Option.to_result ~none:("unknown " ^ what ^ " " ^ s) (of_string s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

let benchmark_conv =
  named "benchmark" Workloads.Suite.find (fun b -> b.Workloads.Bench_def.name)

let policy_conv =
  named "policy" Replay.Engine.policy_of_string Replay.Engine.policy_name

let sampler_conv =
  named "sampler" Faultinject.Campaign.sampler_of_string
    Faultinject.Campaign.sampler_name

let or_default d = function [] -> d | l -> l
let positive flag n = if n > 0 then Ok () else Error (flag ^ " must be positive")
let resolve_jobs n = if n <= 0 then Experiments.Parallel.ncores () else n

(* --- the run configuration ---------------------------------------------- *)

let benchmark_arg =
  let doc = "Bundled benchmark name (stringsearch, dijkstra, crc, rc4, fft, aes, lzfx, bitcount, rsa, arith, journal)." in
  Arg.(value & opt (some benchmark_conv) None & info [ "benchmark"; "b" ] ~doc)

let file_arg =
  let doc = "mini-C source file to compile and run." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc)

let system_arg =
  let doc = "Caching system: baseline, swapram, block or checkpoint." in
  Arg.(
    value
    & opt (enum systems) (List.assoc "swapram" systems)
    & info [ "system"; "s" ] ~doc)

let placement_arg =
  let doc = "Memory placement: unified, standard, code-sram, all-sram or split." in
  Arg.(
    value & opt (enum placements) Toolchain.Unified
    & info [ "placement"; "p" ] ~doc)

let freq_arg =
  let doc = "CPU frequency in MHz (8 or 24)." in
  Arg.(value & opt (enum frequencies) Platform.Mhz24 & info [ "freq" ] ~doc)

let seed_arg =
  let doc = "Input generation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let blacklist_arg =
  let doc = "Function excluded from caching (repeatable)." in
  Arg.(value & opt_all string [] & info [ "blacklist" ] ~doc)

let engine_info =
  let doc =
    "Simulator execution engine: superblock (default), reference, or — for \
     the run command only — check, which executes the configuration under \
     both engines, fails unless every simulated result matches exactly, and \
     prints the host-side speedup."
  in
  Arg.info [ "engine" ] ~doc

let engine_arg =
  Arg.(value & opt (enum engines) Msp430.Cpu.Superblock & engine_info)

(* The Toolchain.config of a single-run subcommand, built in one place.
   [axes] lists the optional flags the subcommand exposes; an absent
   axis keeps the default configuration's value. *)
let config_term axes =
  let axis a arg default = if List.mem a axes then arg else Term.const default in
  let make benchmark file seed caching placement frequency blacklist engine =
    let* b =
      match (benchmark, file) with
      | Some b, None -> Ok b
      | None, Some path ->
          let* source = Experiments.Compare.read_file path in
          Ok
            {
              Workloads.Bench_def.name = Filename.basename path;
              short = "USR";
              source = (fun _ -> source);
              fits_data_in_sram = false;
            }
      | _ -> Error "pass exactly one of --benchmark or --file"
    in
    let caching =
      match caching with
      | Toolchain.Swapram_cache o ->
          Toolchain.Swapram_cache { o with Swapram.Config.blacklist }
      | c -> c
    in
    Ok
      {
        (Toolchain.default_config b) with
        Toolchain.seed;
        caching;
        placement;
        frequency;
        engine;
      }
  in
  Term.(
    term_result'
      (const make $ benchmark_arg $ file_arg $ seed_arg
      $ axis `System system_arg (List.assoc "swapram" systems)
      $ axis `Placement placement_arg Toolchain.Unified
      $ axis `Freq freq_arg Platform.Mhz24
      $ axis `Blacklist blacklist_arg []
      $ axis `Engine engine_arg (Toolchain.default_engine ())))

let all_axes = [ `System; `Placement; `Freq; `Blacklist; `Engine ]

(* Telemetry manifest fields of a configuration. *)
let config_fields (c : Toolchain.config) =
  [
    ("benchmark", Json.String c.benchmark.Workloads.Bench_def.name);
    ("seed", Json.Int c.seed);
    ("system", Json.String (Toolchain.caching_name c.caching));
    ("config_fingerprint", Json.Int (Toolchain.config_fingerprint c));
  ]

let completed ?(what = "run") = function
  | Toolchain.Completed r -> Ok r
  | Toolchain.Did_not_fit msg ->
      Error ("binary does not fit the platform: " ^ msg)
  | Toolchain.Crashed o ->
      Error (what ^ " did not halt: " ^ Experiments.Report.outcome_cell o)

let print_header ?(system = true) ?placement (c : Toolchain.config) =
  Printf.printf "benchmark    : %s (seed %d)\n" c.benchmark.Workloads.Bench_def.name
    c.seed;
  if system then
    Printf.printf "system       : %s, %s, %s\n"
      (Toolchain.caching_name c.caching)
      (Option.value placement
         ~default:(Toolchain.placement_name c.placement))
      (Platform.frequency_name c.frequency)

let print_cycles stats =
  Printf.printf "cycles       : %d unstalled + %d stalls = %d\n"
    stats.Trace.unstalled_cycles stats.Trace.stall_cycles
    (Trace.total_cycles stats)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* --- the command wrapper ------------------------------------------------ *)

let telemetry_arg =
  let doc =
    "Write a host-telemetry run ledger (append-only JSONL of spans, counters \
     and worker-lifecycle records) to $(docv); just --telemetry defaults to \
     telemetry.jsonl. Inspect with the timeline command. Telemetry is \
     non-perturbing: simulated results and reports are byte-identical with \
     the flag on or off."
  in
  Arg.(
    value
    & opt ~vopt:(Some "telemetry.jsonl") (some string) None
    & info [ "telemetry" ] ~docv:"PATH" ~doc)

(* Every subcommand's term yields its telemetry manifest fields and its
   body. A body's Error, and a Sys_error or Unix_error from a path the
   user named, exit 124 with a one-line message. With [~traced] the
   command takes --telemetry and runs its body inside a run ledger
   whose manifest names the command; the sink is closed on every exit
   path, so the ledger is complete even when the command fails. *)
let command ?(traced = false) name ~doc term =
  let go telemetry (fields, body) =
    let body () =
      match telemetry with
      | None -> body ()
      | Some path ->
          let* () = Observe.Telemetry.enable path in
          Observe.Telemetry.manifest
            (("tool", Json.String "swapram_cli")
            :: ("command", Json.String name)
            :: fields);
          Fun.protect ~finally:Observe.Telemetry.disable body
    in
    match body () with
    | Ok () -> `Ok ()
    | Error e -> `Error (false, e)
    | exception Sys_error e -> `Error (false, e)
    | exception Unix.Unix_error (e, _, arg) ->
        `Error (false, arg ^ ": " ^ Unix.error_message e)
  in
  let telemetry = if traced then telemetry_arg else Term.const None in
  Cmd.v (Cmd.info name ~doc) Term.(ret (const go $ telemetry $ term))

(* --- run ---------------------------------------------------------------- *)

(* --engine check: execute the same configuration under the reference
   interpreter and the superblock engine, fail unless every simulated
   result matches exactly, and report the host-side speedup. CI's
   host-perf smoke step runs this. *)
let check_engines config =
  let with_engine e =
    Experiments.Sweep.timed (fun () ->
        Toolchain.run { config with Toolchain.engine = e })
  in
  let ref_o, ref_s = with_engine Msp430.Cpu.Reference in
  let sb_o, sb_s = with_engine Msp430.Cpu.Superblock in
  match (ref_o, sb_o) with
  | Toolchain.Completed r, Toolchain.Completed s ->
      let open Toolchain in
      let mismatches =
        List.filter_map
          (fun (what, same) -> if same then None else Some what)
          [
            ("stats", r.stats = s.stats);
            ("energy", r.energy = s.energy);
            ("uart", r.uart = s.uart);
            ("return value", r.return_value = s.return_value);
            ("swapram stats", r.swapram_stats = s.swapram_stats);
            ("block stats", r.block_stats = s.block_stats);
          ]
      in
      if mismatches <> [] then
        Error
          (Printf.sprintf "engines disagree on %s: %s"
             config.benchmark.Workloads.Bench_def.name
             (String.concat ", " mismatches))
      else begin
        print_header ~system:false config;
        Printf.printf "cycles       : %d (both engines)\n"
          (Trace.total_cycles r.stats);
        Printf.printf "instructions : %d (both engines)\n"
          r.stats.Trace.instructions;
        Printf.printf "energy       : %.1f uJ (both engines)\n"
          (r.energy.Msp430.Energy.energy_nj /. 1000.0);
        Printf.printf "reference    : %.3f s host\n" ref_s;
        Printf.printf "superblock   : %.3f s host\n" sb_s;
        Printf.printf "speedup      : %.2fx\n"
          (if sb_s > 0.0 then ref_s /. sb_s else 0.0);
        Printf.printf "check        : OK — simulated results identical\n";
        Ok ()
      end
  | _ ->
      Error
        "engine check needs a configuration that runs to a clean halt under \
         both engines"

let run_engine_arg =
  let choices =
    ("check", `Check) :: List.map (fun (n, e) -> (n, `Engine e)) engines
  in
  Arg.(
    value & opt (enum choices) (`Engine Msp430.Cpu.Superblock) & engine_info)

let run_cmd config engine =
  ( config_fields config,
    fun () ->
      match engine with
      | `Check -> check_engines config
      | `Engine engine ->
          let config = { config with Toolchain.engine } in
          let* r = completed (Toolchain.run config) in
          let stats = r.Toolchain.stats in
          print_header config
            ?placement:
              (match config.Toolchain.caching with
              | Toolchain.Checkpoint_runtime _ ->
                  (* the toolchain forces data+stack into SRAM so
                     snapshots cover the whole machine state *)
                  Some (Toolchain.placement_name Toolchain.Standard ^ " (forced)")
              | _ -> None);
          Printf.printf "binary       : %d B code, %d B data\n"
            r.Toolchain.sizes.Toolchain.code_bytes
            r.Toolchain.sizes.Toolchain.data_bytes;
          print_cycles stats;
          Printf.printf "time         : %.3f ms\n"
            (r.Toolchain.energy.Msp430.Energy.time_s *. 1000.0);
          Printf.printf "energy       : %.1f uJ\n"
            (r.Toolchain.energy.Msp430.Energy.energy_nj /. 1000.0);
          Printf.printf "FRAM accesses: %d (%d ifetch, %d data reads, %d writes)\n"
            (Trace.fram_accesses stats) stats.Trace.fram_ifetch
            stats.Trace.fram_data_reads stats.Trace.fram_writes;
          Printf.printf "SRAM accesses: %d\n" (Trace.sram_accesses stats);
          Printf.printf "instructions : %d (%.1f%% from SRAM)\n"
            stats.Trace.instructions
            (100.0 *. Trace.instr_fraction stats Trace.App_sram);
          (match r.Toolchain.swapram_stats with
          | Some s ->
              Printf.printf
                "swapram      : %d misses, %d evictions, %d aborts, %d words \
                 copied\n"
                s.Swapram.Runtime.misses s.Swapram.Runtime.evictions
                (s.Swapram.Runtime.aborts + s.Swapram.Runtime.too_large)
                s.Swapram.Runtime.words_copied
          | None -> ());
          (match r.Toolchain.block_stats with
          | Some s ->
              Printf.printf
                "block cache  : %d misses, %d loads, %d chains, %d flushes\n"
                s.Blockcache.Runtime.misses s.Blockcache.Runtime.block_loads
                s.Blockcache.Runtime.chains s.Blockcache.Runtime.flushes
          | None -> ());
          Printf.printf "uart         : %s\n"
            (String.concat "\\n" (String.split_on_char '\n' r.Toolchain.uart));
          Ok () )

(* --- profile / metrics -------------------------------------------------- *)

(* Profile: run with the observability stack attached and print the
   per-function cycle/energy attribution. --verify re-runs the same
   configuration unobserved and checks the totals match exactly —
   tracing must perturb nothing. *)
let profile_cmd config top folded chrome verify =
  ( [],
    fun () ->
      let* r =
        completed (Toolchain.run ~observe:Toolchain.default_observe config)
      in
      let obs = Option.get r.Toolchain.observation in
      let profiler = obs.Toolchain.o_profiler in
      let stats = r.Toolchain.stats in
      let params =
        match config.Toolchain.frequency with
        | Platform.Mhz8 -> Msp430.Energy.point_8mhz
        | Platform.Mhz24 -> Msp430.Energy.point_24mhz
      in
      print_header config;
      print_cycles stats;
      Printf.printf "runtime share: %.1f%% of cycles in the caching runtime\n\n"
        (100.0
        *. (Observe.Profiler.source_share profiler Trace.Handler
           +. Observe.Profiler.source_share profiler Trace.Memcpy));
      if folded then
        List.iter print_endline (Observe.Profiler.folded_lines profiler)
      else print_string (Observe.Profiler.render ~top ~params profiler);
      Option.iter
        (fun path ->
          write_file path
            (Observe.Chrome.export ~symtab:obs.Toolchain.o_symtab
               (Option.get obs.Toolchain.o_events));
          Printf.printf "\nwrote Chrome trace to %s\n" path)
        chrome;
      if not verify then Ok ()
      else
        match Toolchain.run config with
        | Toolchain.Completed plain ->
            let ps = plain.Toolchain.stats in
            let totals = Observe.Profiler.totals profiler in
            if
              Trace.total_cycles ps = Trace.total_cycles stats
              && ps.Trace.instructions = stats.Trace.instructions
              && Trace.total_cycles ps = Observe.Profiler.cycles_of totals
              && ps.Trace.instructions = totals.Observe.Profiler.instrs
              && plain.Toolchain.uart = r.Toolchain.uart
            then begin
              Printf.printf
                "\nverify       : OK — untraced run identical (%d cycles, %d \
                 instructions)\n"
                (Trace.total_cycles ps) ps.Trace.instructions;
              Ok ()
            end
            else
              Error
                (Printf.sprintf
                   "tracing perturbed the run: traced %d cycles / %d instrs, \
                    untraced %d cycles / %d instrs, attributed %d cycles"
                   (Trace.total_cycles stats) stats.Trace.instructions
                   (Trace.total_cycles ps) ps.Trace.instructions
                   (Observe.Profiler.cycles_of totals))
        | _ -> Error "verification rerun did not complete" )

(* Metrics: run with the windowed time-series sampler attached and
   print the cache-dynamics series, address heatmaps and miss-ratio
   curve. *)
let metrics_cmd config window buckets csv =
  ( [],
    fun () ->
      let* () = positive "--window" window in
      let* () = positive "--buckets" buckets in
      let observe =
        {
          Toolchain.default_observe with
          Toolchain.metrics_window = window;
          metrics_buckets = buckets;
        }
      in
      let* r = completed (Toolchain.run ~observe config) in
      let m = Option.get (Option.get r.Toolchain.observation).Toolchain.o_metrics in
      if csv then print_string (Observe.Metrics.render_csv m)
      else begin
        print_header config;
        Printf.printf "window       : %d cycles\n\n" window;
        print_string (Observe.Metrics.render_series m);
        print_newline ();
        print_string (Observe.Metrics.render_heatmaps m);
        print_newline ();
        print_string (Observe.Metrics.render_mrc m)
      end;
      Ok () )

(* --- pgo ---------------------------------------------------------------- *)

(* Profile-guided placement: train -> rebuild -> measure.

     swapram_cli pgo -b rc4                  # full loop, print the delta
     swapram_cli pgo -b rc4 --train p.json   # training run only, save profile
     swapram_cli pgo -b rc4 --profile p.json # place a saved profile
     swapram_cli pgo -b rc4 --gate           # nonzero exit if PGO is slower
*)
let pgo_cmd config budget train profile gate =
  let name = config.Toolchain.benchmark.Workloads.Bench_def.name in
  ( config_fields config,
    fun () ->
      match train with
      | Some path ->
          (* training only: run observed under the default placement and
             serialize the per-function profile *)
          let* r =
            completed ~what:"training run"
              (Toolchain.run ~observe:Toolchain.default_observe config)
          in
          let p =
            Toolchain.profile_of_training ~benchmark:name
              ~cache_size:Swapram.Config.default_options.Swapram.Config.cache_size
              (Option.get r.Toolchain.swapram_manifest)
              (Option.get r.Toolchain.observation).Toolchain.o_profiler
          in
          write_file path (Swapram.Pgo.profile_to_string p);
          Printf.printf "wrote profile for %s (%d functions) to %s\n" name
            (List.length p.Swapram.Pgo.pr_funcs)
            path;
          Ok ()
      | None ->
          let* profile =
            match profile with
            | None -> Ok None
            | Some path ->
                let* s = Experiments.Compare.read_file path in
                Result.map Option.some
                  (Result.map_error (( ^ ) (path ^ ": "))
                     (Swapram.Pgo.profile_of_string s))
          in
          let* r = Toolchain.run_pgo ?budget ?profile config in
          let* m = completed ~what:"PGO run" r.Toolchain.pg_measured in
          let placement = r.Toolchain.pg_placement in
          let train_r = r.Toolchain.pg_train in
          let tc = Trace.total_cycles train_r.Toolchain.stats in
          let mc = Trace.total_cycles m.Toolchain.stats in
          let te = train_r.Toolchain.energy.Msp430.Energy.energy_nj in
          let me = m.Toolchain.energy.Msp430.Energy.energy_nj in
          let delta o n = if o = 0.0 then 0.0 else 100.0 *. (n -. o) /. o in
          let names = function [] -> "(none)" | l -> String.concat " " l in
          print_header ~system:false config;
          Printf.printf "pinned       : %s\n" (names placement.Swapram.Pgo.pl_pinned);
          Printf.printf "fram-resident: %s\n"
            (names placement.Swapram.Pgo.pl_fram_resident);
          Printf.printf "budget       : %d B pinned budget\n"
            placement.Swapram.Pgo.pl_budget;
          Printf.printf "cycles       : %d default -> %d pgo (%+.2f%%)\n" tc mc
            (delta (float_of_int tc) (float_of_int mc));
          Printf.printf "energy       : %.1f uJ default -> %.1f uJ pgo (%+.2f%%)\n"
            (te /. 1000.0) (me /. 1000.0) (delta te me);
          (match (train_r.Toolchain.swapram_stats, m.Toolchain.swapram_stats) with
          | Some d, Some p ->
              Printf.printf
                "misses       : %d default -> %d pgo (%d pinned copies)\n"
                d.Swapram.Runtime.misses p.Swapram.Runtime.misses
                p.Swapram.Runtime.pins
          | _ -> ());
          if gate && mc > tc then
            Error
              (Printf.sprintf "PGO gate failed: %d cycles > %d default cycles"
                 mc tc)
          else Ok () )

let budget_arg =
  let doc = "Pinned-set byte budget (default: half the SRAM cache)." in
  Arg.(value & opt (some int) None & info [ "budget" ] ~doc)

let train_arg =
  let doc =
    "Run the observed training pass only and write the per-function profile \
     (JSON) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "train" ] ~docv:"PATH" ~doc)

let profile_path_arg =
  let doc =
    "Place a previously saved profile from $(docv) instead of training \
     in-process."
  in
  Arg.(value & opt (some file) None & info [ "profile" ] ~docv:"PATH" ~doc)

let gate_arg =
  let doc =
    "Exit nonzero unless the PGO build's total cycles are no worse than the \
     default build's (CI smoke gate)."
  in
  Arg.(value & flag & info [ "gate" ] ~doc)

(* --- compare ------------------------------------------------------------ *)

(* Compare: the perf-regression gate. Nonzero exit on any regression
   beyond the per-metric thresholds (or structural mismatch), so CI
   can gate on `swapram_cli compare bench/baseline.json report.json`. *)
let compare_cmd old_path new_path threshold =
  ( [],
    fun () ->
      let thresholds =
        match threshold with
        | None -> Experiments.Compare.default_thresholds
        | Some t ->
            List.map (fun (m, _) -> (m, t)) Experiments.Compare.default_thresholds
      in
      let* outcome =
        Experiments.Compare.compare_files ~thresholds old_path new_path
      in
      print_string (Experiments.Compare.render outcome);
      let regs = Experiments.Compare.regressions outcome in
      if regs = [] && outcome.Experiments.Compare.errors = [] then Ok ()
      else
        Error
          (Printf.sprintf "perf gate failed: %d regression(s), %d error(s)"
             (List.length regs)
             (List.length outcome.Experiments.Compare.errors)) )

let old_report_arg =
  let doc = "Baseline report (e.g. bench/baseline.json)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)

let new_report_arg =
  let doc = "Candidate report to gate (e.g. bench/report.json)." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)

let threshold_arg =
  let doc =
    "Override every per-metric relative threshold with one value (e.g. 0.02 \
     = 2%)."
  in
  Arg.(value & opt (some float) None & info [ "threshold" ] ~doc)

(* --- asm / disasm / trace ----------------------------------------------- *)

let program_of (c : Toolchain.config) =
  Minic.Driver.program_of_source (c.benchmark.Workloads.Bench_def.source c.seed)

let asm_cmd config instrumented =
  ( [],
    fun () ->
      let program = program_of config in
      let program =
        if instrumented then (Swapram.Pipeline.build program).Swapram.Pipeline.program
        else program
      in
      Format.printf "%a@." Masm.Ast.pp_program program;
      Ok () )

(* objdump-style listing of the assembled image *)
let disasm_cmd config instrumented =
  ( [],
    fun () ->
      let program = program_of config in
      let image =
        if instrumented then (Swapram.Pipeline.build program).Swapram.Pipeline.image
        else Masm.Assembler.assemble program
      in
      let reverse = Hashtbl.create 97 in
      Hashtbl.iter
        (fun name addr ->
          if not (Hashtbl.mem reverse addr) then Hashtbl.replace reverse addr name)
        image.Masm.Assembler.symbols;
      List.iter
        (fun (addr, instr) ->
          (match Hashtbl.find_opt reverse addr with
          | Some name -> Printf.printf "\n%04x <%s>:\n" addr name
          | None -> ());
          Printf.printf "  %04x:  %s\n" addr (Msp430.Isa.to_string instr))
        image.Masm.Assembler.instructions;
      Ok () )

(* Execution trace: boot the image `run` would execute and print the
   first N decoded instructions with their addresses, mspdebug-style. *)
let trace_cmd config limit =
  ( [],
    fun () ->
      let* p =
        Result.map_error
          (( ^ ) "binary does not fit the platform: ")
          (Toolchain.prepare config)
      in
      Toolchain.boot p;
      let cpu = p.Toolchain.p_system.Platform.cpu in
      let traced = ref 0 in
      Msp430.Cpu.set_tracer cpu
        (Some
           (fun ~pc instr ->
             if !traced < limit then begin
               incr traced;
               Printf.printf "%06d  %04x:  %s\n" !traced pc
                 (Msp430.Isa.to_string instr)
             end));
      (* one-instruction runs, so the checkpoint timer fires as in run *)
      while
        !traced < limit && Msp430.Cpu.run ~fuel:1 cpu = Msp430.Cpu.Fuel_exhausted
      do
        ()
      done;
      Ok () )

let instrumented_arg =
  let doc = "Print the SwapRAM-instrumented program instead of plain output." in
  Arg.(value & flag & info [ "instrumented"; "i" ] ~doc)

let limit_arg =
  let doc = "Number of instructions to trace." in
  Arg.(value & opt int 100 & info [ "limit"; "n" ] ~doc)

(* --- record / replay ---------------------------------------------------- *)

(* Record once / replay many: capture the counted event stream into a
   compact binary trace, then re-evaluate cache models against the
   trace in microseconds instead of re-executing the CPU. *)

let load_trace path =
  Result.map_error
    (fun e -> path ^ ": " ^ Replay.Engine.error_message e)
    (Replay.Engine.load path)

let record_cmd config out =
  ( config_fields config @ [ ("trace", Json.String out) ],
    fun () ->
      let* r = completed (Toolchain.run_recorded ~trace:out config) in
      let* l = load_trace out in
      print_header config;
      print_cycles r.Toolchain.stats;
      Printf.printf "events       : %d (%d B on disk)\n" l.Replay.Engine.events
        l.Replay.Engine.bytes;
      Printf.printf "fingerprint  : %d\n"
        l.Replay.Engine.header.Replay.Trace_file.fingerprint;
      match Toolchain.replay_mismatches l r with
      | [] ->
          Printf.printf "self-check   : OK — trace replays the recording exactly\n";
          Ok ()
      | m :: _ -> Error ("recorded trace does not replay exactly: " ^ m) )

let trace_out_arg =
  let doc = "Trace file to write." in
  Arg.(
    required & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)

(* --check: the trace header names the recorded configuration; rebuild
   it with default options and refuse (via the fingerprint) if the
   recording used anything the names don't capture. *)
let check_against_execution l =
  let h = l.Replay.Engine.header in
  let* b =
    Option.to_result
      ~none:
        ("trace benchmark " ^ h.Replay.Trace_file.benchmark
       ^ " is not in the bundled suite")
      (Workloads.Suite.find h.Replay.Trace_file.benchmark)
  in
  let* caching = lookup "system" systems h.Replay.Trace_file.system in
  let* placement =
    lookup "placement"
      (List.map (fun (_, p) -> (Toolchain.placement_name p, p)) placements)
      h.Replay.Trace_file.placement
  in
  let* frequency =
    lookup "frequency" frequencies
      (string_of_int h.Replay.Trace_file.frequency_mhz)
  in
  let config =
    {
      (Toolchain.default_config b) with
      Toolchain.seed = h.Replay.Trace_file.seed;
      caching;
      placement;
      frequency;
    }
  in
  if Toolchain.config_fingerprint config <> h.Replay.Trace_file.fingerprint then
    Error
      "trace was recorded under non-default options; its configuration \
       cannot be reconstructed from the header names"
  else
    let* res = completed ~what:"check re-execution" (Toolchain.run config) in
    match Toolchain.replay_mismatches l res with
    | [] ->
        Printf.printf
          "check        : OK — replay reproduces a fresh execution bit-for-bit\n";
        Ok ()
    | mismatches ->
        Error ("replay diverges from execution: " ^ String.concat "; " mismatches)

(* MRC-style budget ladder around the 4 KiB SRAM of the reference
   part: half the paper's sweep range below it, hypothetical larger
   SRAMs above. One trace load amortizes across the whole grid. *)
let replay_default_budgets =
  [ 512; 768; 1024; 1536; 2048; 2560; 3072; 4096; 5120; 6144; 8192; 12288 ]

let replay_cmd trace budgets policies block check freq =
  ( [ ("trace", Json.String trace) ],
    fun () ->
      let policies =
        or_default Replay.Engine.[ Lru; Lfu; Cost_aware ] policies
      in
      let budgets = or_default replay_default_budgets budgets in
      let* l = load_trace trace in
      let h = l.Replay.Engine.header in
      Printf.printf "trace        : %s\n" (Filename.basename trace);
      Printf.printf "benchmark    : %s (seed %d)\n" h.Replay.Trace_file.benchmark
        h.Replay.Trace_file.seed;
      Printf.printf "system       : %s, %s, %d MHz\n" h.Replay.Trace_file.system
        h.Replay.Trace_file.placement h.Replay.Trace_file.frequency_mhz;
      Printf.printf "granularity  : %s\n"
        (match h.Replay.Trace_file.granularity with
        | Replay.Trace_file.Functions sizes ->
            Printf.sprintf "functions (%d)" (Array.length sizes)
        | Replay.Trace_file.Lines n -> Printf.sprintf "%d B lines" n);
      Printf.printf "events       : %d (%d B on disk)\n" l.Replay.Engine.events
        l.Replay.Engine.bytes;
      Printf.printf "footprint    : %d B\n" (Replay.Engine.footprint l);
      let* t = Replay.Engine.exact ?frequency_mhz:freq l in
      Printf.printf "cycles       : %d unstalled + %d stalls = %d (at %d MHz)\n"
        t.Replay.Engine.t_unstalled t.Replay.Engine.t_stall
        t.Replay.Engine.t_cycles t.Replay.Engine.t_frequency_mhz;
      Printf.printf "energy       : %.1f uJ, %.3f ms\n"
        (t.Replay.Engine.t_energy_nj /. 1000.0)
        (t.Replay.Engine.t_time_s *. 1000.0);
      let models =
        List.concat_map
          (fun m_budget ->
            List.map
              (fun m_policy ->
                { Replay.Engine.m_budget; m_policy; m_block = block })
              policies)
          budgets
      in
      List.iter2
        (fun (m : Replay.Engine.model) (sim : Replay.Engine.sim) ->
          Printf.printf
            "cell         : budget=%-5d policy=%-4s refs=%d misses=%d cold=%d \
             evictions=%d loaded=%d B miss-rate=%.6f\n"
            m.Replay.Engine.m_budget
            (Replay.Engine.policy_name m.Replay.Engine.m_policy)
            sim.Replay.Engine.s_refs sim.Replay.Engine.s_misses
            sim.Replay.Engine.s_cold_misses sim.Replay.Engine.s_evictions
            sim.Replay.Engine.s_bytes_loaded sim.Replay.Engine.s_miss_rate)
        models
        (Replay.Engine.simulate_many l models);
      if check then check_against_execution l else Ok () )

let trace_pos_arg =
  let doc = "Recorded trace file (from the record command)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let replay_budget_arg =
  let doc =
    Printf.sprintf
      "Cache budget in bytes to simulate (repeatable; default %s)."
      (String.concat ", " (List.map string_of_int replay_default_budgets))
  in
  Arg.(value & opt_all int [] & info [ "budget" ] ~doc)

let policy_arg =
  let doc = "Replacement policy: lru, lfu or cost (repeatable; default all three)." in
  Arg.(value & opt_all policy_conv [] & info [ "policy" ] ~doc)

let block_override_arg =
  let doc = "Line-size override in bytes for line-granular traces." in
  Arg.(value & opt (some int) None & info [ "block" ] ~doc)

let check_arg =
  let doc =
    "Reconstruct the recorded configuration from the trace header, \
     re-execute it, and fail unless the replay reproduces the execution \
     bit-for-bit (cycles, energy, every counter). Only traces recorded \
     under default caching options are reconstructible."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let replay_freq_arg =
  let doc =
    "Recompute the exact totals at this frequency in MHz instead of the \
     recorded one (retargets wait states and the energy model; the \
     event stream is frequency-independent)."
  in
  Arg.(value & opt (some int) None & info [ "freq" ] ~docv:"MHZ" ~doc)

(* --- faultinject -------------------------------------------------------- *)

(* Power-failure injection with the crash-consistency oracle. *)

let modes =
  [
    ("sweep", `Sweep);
    ("periodic", `Periodic);
    ("random", `Random);
    ("adversarial", `Adversarial);
  ]

let faultinject_cmd config jobs mode periods crash_seed max_reboots
    watchdog_cycles =
  let jobs = resolve_jobs jobs in
  ( config_fields config
    @ [
        ("mode", Json.String (fst (List.find (fun (_, m) -> m = mode) modes)));
        ("jobs", Json.Int jobs);
      ],
    fun () ->
      let periods = or_default [ 400_000; 150_000; 80_000 ] periods in
      let schedules =
        match mode with
        | `Sweep -> List.map (fun p -> Faultinject.Schedule.Periodic p) periods
        | `Periodic -> [ Faultinject.Schedule.Periodic (List.hd periods) ]
        | `Random ->
            [
              Faultinject.Schedule.Random
                { seed = crash_seed; min_gap = 30_000; max_gap = 300_000 };
            ]
        | `Adversarial -> [ Faultinject.Schedule.adversarial ]
      in
      let* reports =
        Result.map_error (( ^ ) "golden run failed: ")
          (Faultinject.Injector.sweep ~max_reboots
             ?watchdog_cycles:
               (if watchdog_cycles <= 0 then None else Some watchdog_cycles)
             ~jobs config schedules)
      in
      print_endline (Faultinject.Injector.table reports);
      let failures =
        List.filter (fun r -> not (Faultinject.Injector.passed r)) reports
      in
      if failures = [] then Ok ()
      else
        Error
          (Printf.sprintf "%d of %d injected runs failed the oracle"
             (List.length failures) (List.length reports)) )

let jobs_arg =
  let doc =
    "Shard independent runs across N forked workers (0 = one per core). \
     Cannot change any simulated value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc)

let mode_arg =
  let doc =
    "Injection mode: sweep (periodic gaps from --period, repeatable), \
     periodic (single gap), random (seeded bursts) or adversarial \
     (outages aimed at the runtime's critical windows)."
  in
  Arg.(value & opt (enum modes) `Sweep & info [ "mode"; "m" ] ~doc)

let period_arg =
  let doc = "Outage period in counted memory accesses (repeatable)." in
  Arg.(value & opt_all int [] & info [ "period" ] ~doc)

let crash_seed_arg =
  let doc = "Seed for the random outage schedule." in
  Arg.(value & opt int 42 & info [ "crash-seed" ] ~doc)

let max_reboots_arg =
  let doc = "Watchdog: reboots before a run is declared a livelock." in
  Arg.(value & opt int 2000 & info [ "max-reboots" ] ~doc)

let watchdog_cycles_arg =
  let doc =
    "Watchdog: cumulative simulated cycles across all lives before a run is \
     declared a livelock (0 = unbounded)."
  in
  Arg.(value & opt int 0 & info [ "watchdog-cycles" ] ~doc)

(* --- campaign ----------------------------------------------------------- *)

(* Monte-Carlo campaign: randomized schedules over a grid of
   benchmarks x runtimes x samplers, aggregated with Wilson CIs. *)

let progress quiet =
  if quiet then Observe.Progress.null else Observe.Progress.auto stderr

let campaign_cmd benchmarks systems samplers trials seed shard max_reboots
    watchdog_scale ci_width resume jobs chunk report quiet =
  let d = Faultinject.Campaign.default_plan in
  let plan =
    {
      d with
      Faultinject.Campaign.p_benchmarks =
        or_default d.Faultinject.Campaign.p_benchmarks benchmarks;
      p_runtimes = or_default d.Faultinject.Campaign.p_runtimes systems;
      p_samplers = or_default d.Faultinject.Campaign.p_samplers samplers;
      p_trials = trials;
      p_seed = seed;
      p_shard_trials = shard;
      p_max_reboots = max_reboots;
      p_watchdog_scale = watchdog_scale;
      p_ci_width = ci_width;
    }
  in
  let jobs = resolve_jobs jobs in
  ( [
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
      ("jobs", Json.Int jobs);
      ("plan_fingerprint", Json.String (Faultinject.Campaign.fingerprint plan));
    ],
    fun () ->
      let* () = positive "--trials" trials in
      let* () = positive "--shard" shard in
      let* outcome =
        Faultinject.Campaign.run ~jobs
          ?chunk:(if chunk > 0 then Some chunk else None)
          ~progress:(progress quiet) ?progress_file:resume plan
      in
      print_string (Faultinject.Campaign.table outcome);
      Option.iter
        (fun path ->
          write_file path
            (Json.to_string_pretty
               (Json.Obj
                  [
                    ( "schema_version",
                      Json.Int Experiments.Bench_report.schema_version );
                    ("campaign", Faultinject.Campaign.to_json outcome);
                  ]));
          Printf.printf "wrote %s\n" path)
        report;
      Ok () )

let campaign_benchmarks_arg =
  let doc =
    "Benchmark in the campaign grid (repeatable; default journal and crc)."
  in
  Arg.(value & opt_all benchmark_conv [] & info [ "benchmark"; "b" ] ~doc)

let campaign_systems_arg =
  let doc =
    "Runtime under test: baseline, swapram, block or checkpoint (repeatable; \
     default swapram, block and checkpoint)."
  in
  Arg.(value & opt_all (enum systems) [] & info [ "system"; "s" ] ~doc)

let sampler_arg =
  let doc =
    "Power-failure sampler: uniform, bursty or near-eviction (repeatable; \
     default all three)."
  in
  Arg.(value & opt_all sampler_conv [] & info [ "sampler" ] ~doc)

let trials_arg =
  let doc = "Trials per cell." in
  Arg.(value & opt int 200 & info [ "trials"; "n" ] ~doc)

let shard_arg =
  let doc = "Trials per shard (the unit of dispatch and checkpointing)." in
  Arg.(value & opt int 25 & info [ "shard" ] ~doc)

let campaign_max_reboots_arg =
  let doc = "Per-trial watchdog: reboots before a livelock verdict." in
  Arg.(value & opt int 1000 & info [ "max-reboots" ] ~doc)

let watchdog_scale_arg =
  let doc =
    "Per-trial cycle watchdog as a multiple of the cell's golden cycles."
  in
  Arg.(value & opt int 16 & info [ "watchdog-scale" ] ~doc)

let ci_width_arg =
  let doc =
    "Stop a cell early once the 95% Wilson interval on its crash-consistency \
     rate is narrower than $(docv) (e.g. 0.05); omit to run every trial."
  in
  Arg.(value & opt (some float) None & info [ "ci-width" ] ~docv:"WIDTH" ~doc)

let resume_arg =
  let doc =
    "Progress checkpoint file: finished shards are persisted here and \
     replayed instead of recomputed on a re-run (extending --trials reuses \
     full shards)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)

(* The help text names the schema version the report is written in. *)
let report_arg what =
  let doc =
    Printf.sprintf "Write %s as schema-v%d JSON to $(docv)." what
      Experiments.Bench_report.schema_version
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

let quiet_arg =
  let doc = "Suppress per-shard progress output on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let chunk_arg =
  let doc =
    "Tasks per worker pipe round trip (0 = dynamic chunk sizing; 1 disables \
     chunking)."
  in
  Arg.(value & opt int 0 & info [ "chunk" ] ~doc)

(* --- dse ---------------------------------------------------------------- *)

let dse_cmd benchmarks systems bmin bmax bstep policies blocks mhzs seed jobs
    chunk trace_dir resume report frontier quiet =
  let budgets =
    let rec go acc b =
      if b > bmax then List.rev acc else go (b :: acc) (b + bstep)
    in
    if bstep > 0 then go [] bmin else []
  in
  let d = Experiments.Dse.default_grid in
  let grid =
    {
      Experiments.Dse.g_budgets = budgets;
      g_policies = or_default d.Experiments.Dse.g_policies policies;
      g_blocks =
        (match blocks with
        | [] -> d.Experiments.Dse.g_blocks
        | bs -> List.map (fun b -> if b = 0 then None else Some b) bs);
      g_frequencies = or_default d.Experiments.Dse.g_frequencies mhzs;
    }
  in
  let jobs = resolve_jobs jobs in
  let some = function [] -> None | l -> Some l in
  ( [
      ("seed", Json.Int seed);
      ("jobs", Json.Int jobs);
      ("budgets", Json.Int (List.length budgets));
    ],
    fun () ->
      let* () = positive "--budget-step" bstep in
      let* () = Experiments.Dse.validate_grid grid in
      let progress = progress quiet in
      let dir, cleanup =
        match trace_dir with
        | Some dir ->
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            (dir, fun () -> ())
        | None ->
            let dir = Filename.temp_file "swapram-dse" "" in
            Sys.remove dir;
            Unix.mkdir dir 0o700;
            ( dir,
              fun () ->
                Array.iter
                  (fun f ->
                    try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
                  (Sys.readdir dir);
                try Unix.rmdir dir with Unix.Unix_error _ -> () )
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      let* workloads =
        Experiments.Dse.record_workloads ~seed ?benchmarks:(some benchmarks)
          ?systems:(some systems) ~jobs ~progress ~dir ()
      in
      let* outcome =
        Experiments.Dse.run ~jobs
          ?chunk:(if chunk > 0 then Some chunk else None)
          ~progress ?store:resume grid workloads
      in
      let open Experiments.Dse in
      Printf.printf "workloads : %d\n" (List.length outcome.d_workloads);
      List.iter
        (fun f ->
          Printf.printf "  %-24s %6d points, %4d on frontier\n" f.f_workload
            f.f_points
            (List.length f.f_frontier))
        outcome.d_frontiers;
      Printf.printf
        "points    : %d (%d sims: %d computed, %d cached, %d collapsed)\n"
        outcome.d_points_total outcome.d_sims_total outcome.d_sims_computed
        outcome.d_sims_cached outcome.d_sims_collapsed;
      Printf.printf "global    : %d frontier points\n"
        (List.length outcome.d_global_frontier);
      Printf.printf "eval      : %.2f s, %.0f points/s\n" outcome.d_eval_s
        outcome.d_points_per_s;
      let write path json =
        write_file path (Json.to_string_pretty json ^ "\n");
        Printf.printf "wrote %s\n" path
      in
      Option.iter
        (fun path ->
          write path
            (Json.Obj
               [
                 ( "schema_version",
                   Json.Int Experiments.Bench_report.schema_version );
                 ("dse", Experiments.Dse.json grid outcome);
               ]))
        report;
      Option.iter
        (fun path -> write path (Experiments.Dse.json ~slim:true grid outcome))
        frontier;
      Ok () )

let dse_benchmarks_arg =
  let doc =
    "Benchmark in the exploration grid (repeatable; default the full suite)."
  in
  Arg.(value & opt_all benchmark_conv [] & info [ "benchmark"; "b" ] ~doc)

let dse_systems_arg =
  let doc =
    "Caching system axis: swapram or block (repeatable; default both)."
  in
  Arg.(
    value
    & opt_all (enum [ ("swapram", "swapram"); ("block", "block") ]) []
    & info [ "system"; "s" ] ~doc)

let dse_budget_min_arg =
  let doc = "Smallest SRAM budget in bytes." in
  Arg.(value & opt int 512 & info [ "budget-min" ] ~doc)

let dse_budget_max_arg =
  let doc = "Largest SRAM budget in bytes." in
  Arg.(value & opt int 16384 & info [ "budget-max" ] ~doc)

let dse_budget_step_arg =
  let doc = "SRAM budget step in bytes." in
  Arg.(value & opt int 32 & info [ "budget-step" ] ~doc)

let dse_policy_arg =
  let doc =
    "Eviction-policy axis: lru, lfu or cost (repeatable; default all three)."
  in
  Arg.(value & opt_all policy_conv [] & info [ "policy" ] ~doc)

let dse_block_arg =
  let doc =
    "Block-size axis in bytes, 0 for the recorded slot size (repeatable; \
     default 0, 256 and 512; applies to line-granular traces only)."
  in
  Arg.(value & opt_all int [] & info [ "block" ] ~doc)

let dse_mhz_arg =
  let doc =
    "Clock-frequency axis in MHz: 8 or 24 (repeatable; default both)."
  in
  Arg.(value & opt_all int [] & info [ "mhz" ] ~doc)

let dse_trace_dir_arg =
  let doc =
    "Directory for recorded traces (created if missing; traces whose header \
     fingerprint matches are reused instead of re-recorded). Default: a \
     temporary directory removed on exit."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let dse_resume_arg =
  let doc =
    "Persistent memo store: the computed sims are appended here when the \
     simulate phase returns, and a re-run only computes cells missing from \
     the store (a warm store computes 0)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)

let dse_frontier_arg =
  let doc =
    "Write the deterministic (slim) DSE object to $(docv) — byte-identical \
     across serial, parallel and resumed runs."
  in
  Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"PATH" ~doc)

(* --- timeline ----------------------------------------------------------- *)

(* Timeline: render a telemetry run ledger (written by --telemetry)
   as a Chrome trace-event file, a utilization summary, or CSV. *)
let timeline_cmd ledger chrome csv summary =
  ( [],
    fun () ->
      let* records = Observe.Telemetry.read_file ledger in
      let export path render what =
        Option.iter
          (fun path ->
            write_file path (render records);
            Printf.printf "wrote %s to %s\n" what path)
          path
      in
      export chrome Observe.Telemetry.chrome "Chrome timeline";
      export csv Observe.Telemetry.csv "CSV table";
      if summary || (chrome = None && csv = None) then
        print_string (Observe.Telemetry.summary records);
      Ok () )

let ledger_pos_arg =
  let doc = "Telemetry run ledger (JSONL, written by --telemetry)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LEDGER" ~doc)

let timeline_chrome_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv): one track per worker \
     PID plus a host track with spans and counters (load in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)

let timeline_csv_arg =
  let doc = "Write the flattened span/task/counter table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

let timeline_summary_arg =
  let doc =
    "Print the utilization/throughput summary (default when no exporter is \
     requested)."
  in
  Arg.(value & flag & info [ "summary" ] ~doc)

(* --- profile / metrics flags -------------------------------------------- *)

let top_arg =
  let doc = "Show only the N hottest functions (0 = all)." in
  Arg.(value & opt int 0 & info [ "top" ] ~doc)

let folded_arg =
  let doc = "Emit caller-aggregated folded stacks (flame-graph input) instead of the table." in
  Arg.(value & flag & info [ "folded" ] ~doc)

let chrome_arg =
  let doc = "Also write a Chrome trace-event JSON file to $(docv)." in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)

let verify_arg =
  let doc =
    "Re-run the same configuration without observation and fail unless the \
     cycle and instruction totals match exactly."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let window_arg =
  let doc = "Metrics window length in total (CPU + stall) cycles." in
  Arg.(value & opt int 65536 & info [ "window"; "w" ] ~doc)

let buckets_arg =
  let doc = "Address-histogram buckets per memory region." in
  Arg.(value & opt int 48 & info [ "buckets" ] ~doc)

let csv_arg =
  let doc = "Emit the per-window series as CSV instead of the text report." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let cmds =
  [
    command "run" ~traced:true ~doc:"Build and simulate a program"
      Term.(
        const run_cmd
        $ config_term [ `System; `Placement; `Freq; `Blacklist ]
        $ run_engine_arg);
    command "profile"
      ~doc:
        "Simulate with the cycle-attribution profiler attached and print \
         per-function cycle/energy attribution"
      Term.(
        const profile_cmd $ config_term all_axes $ top_arg $ folded_arg
        $ chrome_arg $ verify_arg);
    command "metrics"
      ~doc:
        "Simulate with the windowed cache-dynamics sampler attached and print \
         the time series, FRAM/SRAM address heatmaps and the miss-ratio curve"
      Term.(
        const metrics_cmd $ config_term all_axes $ window_arg $ buckets_arg
        $ csv_arg);
    command "pgo" ~traced:true
      ~doc:
        "Profile-guided placement: train under the default SwapRAM pipeline, \
         rebuild with the hot set pinned in SRAM, and measure the improvement"
      Term.(
        const pgo_cmd
        $ config_term [ `Freq; `Blacklist; `Engine ]
        $ budget_arg $ train_arg $ profile_path_arg $ gate_arg);
    command "compare"
      ~doc:
        "Perf-regression gate: compare two bench reports under per-metric \
         thresholds; nonzero exit on regression"
      Term.(const compare_cmd $ old_report_arg $ new_report_arg $ threshold_arg);
    command "record" ~traced:true
      ~doc:
        "Simulate once and capture the counted event stream into a compact \
         binary trace for the replay command"
      Term.(
        const record_cmd
        $ config_term [ `System; `Placement; `Freq; `Blacklist ]
        $ trace_out_arg);
    command "replay" ~traced:true
      ~doc:
        "Replay a recorded trace through cache models (budgets x replacement \
         policies) without re-executing the CPU; --check verifies bit-for-bit \
         agreement with a fresh execution"
      Term.(
        const replay_cmd $ trace_pos_arg $ replay_budget_arg $ policy_arg
        $ block_override_arg $ check_arg $ replay_freq_arg);
    command "asm" ~doc:"Dump generated (optionally instrumented) assembly"
      Term.(const asm_cmd $ config_term [] $ instrumented_arg);
    command "disasm"
      ~doc:"Disassemble the assembled image (objdump-style listing)"
      Term.(const disasm_cmd $ config_term [] $ instrumented_arg);
    command "trace" ~doc:"Print an execution trace (mspdebug-style)"
      Term.(const trace_cmd $ config_term [ `System ] $ limit_arg);
    command "faultinject" ~traced:true
      ~doc:
        "Inject power failures and verify crash consistency against an \
         uninterrupted golden run"
      Term.(
        const faultinject_cmd $ config_term all_axes $ jobs_arg $ mode_arg
        $ period_arg $ crash_seed_arg $ max_reboots_arg $ watchdog_cycles_arg);
    command "campaign" ~traced:true
      ~doc:
        "Monte-Carlo fault-injection campaign: randomized power-failure \
         schedules against a grid of benchmarks x runtimes x samplers, with \
         Wilson confidence intervals, optional early stopping, self-healing \
         parallel workers and resumable progress checkpoints"
      Term.(
        const campaign_cmd $ campaign_benchmarks_arg $ campaign_systems_arg
        $ sampler_arg $ trials_arg $ seed_arg $ shard_arg
        $ campaign_max_reboots_arg $ watchdog_scale_arg $ ci_width_arg
        $ resume_arg $ jobs_arg $ chunk_arg
        $ report_arg "the campaign report"
        $ quiet_arg);
    command "dse" ~traced:true
      ~doc:
        "Design-space exploration: replay recorded traces over a grid of SRAM \
         budget x eviction policy x block size x frequency points and compute \
         exact Pareto frontiers (cycles, energy, SRAM, NVM traffic), with \
         batched replay, chunked parallel dispatch and a persistent memo \
         store for incremental re-runs"
      Term.(
        const dse_cmd $ dse_benchmarks_arg $ dse_systems_arg
        $ dse_budget_min_arg $ dse_budget_max_arg $ dse_budget_step_arg
        $ dse_policy_arg $ dse_block_arg $ dse_mhz_arg $ seed_arg $ jobs_arg
        $ chunk_arg $ dse_trace_dir_arg $ dse_resume_arg
        $ report_arg "the full DSE report (including host timing)"
        $ dse_frontier_arg $ quiet_arg);
    command "timeline"
      ~doc:
        "Render a telemetry run ledger (--telemetry) as a Chrome trace-event \
         worker timeline, a utilization/throughput summary, or CSV"
      Term.(
        const timeline_cmd $ ledger_pos_arg $ timeline_chrome_arg
        $ timeline_csv_arg $ timeline_summary_arg);
  ]

let () =
  let info =
    Cmd.info "swapram_cli"
      ~doc:"SwapRAM software instruction cache for NVRAM microcontrollers"
  in
  exit (Cmd.eval (Cmd.group info cmds))
