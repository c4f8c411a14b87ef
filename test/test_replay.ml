(* Differential replay equivalence: a trace recorded from the counted
   event stream must let the replay engine reproduce the executor —
   cycles, energy, every counter, the per-window metrics series —
   bit-for-bit, across every Table-2 benchmark and both caching
   runtimes, plus random programs. The binary format itself gets a
   QCheck round-trip property, truncation/version error checks, and a
   golden byte-for-byte snapshot pinned at seed 1. *)

module Trace = Msp430.Trace
module Platform = Msp430.Platform
module Engine = Replay.Engine
module Trace_file = Replay.Trace_file
module Toolchain = Experiments.Toolchain
module Parallel = Experiments.Parallel

let with_temp_trace f =
  let path = Filename.temp_file "replay-test-" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let config_for b system =
  let caching =
    match system with
    | "swapram" -> Toolchain.Swapram_cache Swapram.Config.default_options
    | "block" -> Toolchain.Block_cache Blockcache.Config.default_options
    | _ -> assert false
  in
  { (Toolchain.default_config b) with Toolchain.caching }

(* --- Tentpole: replay-equivalence over the Table-2 suite --------------- *)

(* One (benchmark x system) cell per worker: record with the full
   metrics stack attached, then check the replay against the recorded
   run — exact totals / counters via Toolchain.replay_mismatches and
   the windowed metrics series byte-for-byte through every renderer.
   Combinations that crash or don't fit record nothing and are
   vacuously equivalent (the block cache doesn't fit four of the
   nine). Returns failure descriptions so comparisons happen inside
   the forked worker (results cross the process boundary as plain
   strings). *)
let equivalence_failures (b, system) =
  let name = b.Workloads.Bench_def.name in
  let tag msg = Printf.sprintf "%s/%s: %s" name system msg in
  with_temp_trace (fun trace ->
      let config = config_for b system in
      match
        Toolchain.run_recorded ~observe:Toolchain.metrics_observe ~trace config
      with
      | Toolchain.Did_not_fit _ | Toolchain.Crashed _ -> []
      | Toolchain.Completed res -> (
          match Engine.load trace with
          | Error e -> [ tag ("load: " ^ Engine.error_message e) ]
          | Ok l -> (
              let counter_fails =
                List.map tag (Toolchain.replay_mismatches l res)
              in
              let metrics_fails =
                match res.Toolchain.observation with
                | Some { Toolchain.o_metrics = Some m; _ } -> (
                    match Engine.replay_metrics trace with
                    | Error e ->
                        [ tag ("replay_metrics: " ^ Engine.error_message e) ]
                    | Ok (rm, _) ->
                        List.filter_map
                          (fun (what, render) ->
                            if String.equal (render rm) (render m) then None
                            else Some (tag ("metrics " ^ what ^ " diverges")))
                          [
                            ("series csv", Observe.Metrics.render_csv);
                            ("mrc", fun m -> Observe.Metrics.render_mrc m);
                            ( "heatmaps",
                              fun m -> Observe.Metrics.render_heatmaps m );
                          ])
                | _ -> [ tag "metrics sampler was not attached" ]
              in
              counter_fails @ metrics_fails)))

let equivalence_test () =
  let pairs =
    List.concat_map
      (fun b -> [ (b, "swapram"); (b, "block") ])
      Workloads.Suite.all
  in
  let fails =
    Parallel.map ~jobs:(Parallel.ncores ()) equivalence_failures pairs
    |> List.concat
  in
  if fails <> [] then Alcotest.failf "%s" (String.concat "\n" fails)

(* Random programs: record -> replay == execute, under a small cache
   so the eviction/abort paths are exercised too. *)
let prop_record_replay_equals_execute =
  QCheck2.Test.make ~count:15
    ~name:"record -> replay reproduces execution (random programs)"
    ~print:(fun s -> s) Test_differential.gen_program (fun source ->
      let b =
        {
          Workloads.Bench_def.name = "qcheck";
          short = "QCK";
          source = (fun _ -> source);
          fits_data_in_sram = false;
        }
      in
      let options =
        { Swapram.Config.default_options with Swapram.Config.cache_size = 512 }
      in
      let config =
        {
          (Toolchain.default_config b) with
          Toolchain.caching = Toolchain.Swapram_cache options;
        }
      in
      with_temp_trace (fun trace ->
          match Toolchain.run_recorded ~trace config with
          | Toolchain.Did_not_fit msg ->
              QCheck2.Test.fail_reportf "did not fit: %s" msg
          | Toolchain.Crashed o ->
              QCheck2.Test.fail_reportf "crashed: %s" (Msp430.Cpu.outcome_name o)
          | Toolchain.Completed res -> (
              match Engine.load trace with
              | Error e ->
                  QCheck2.Test.fail_reportf "load: %s" (Engine.error_message e)
              | Ok l -> (
                  match Toolchain.replay_mismatches l res with
                  | [] -> true
                  | m ->
                      QCheck2.Test.fail_reportf "%s" (String.concat "; " m)))))

(* --- Binary format: QCheck round-trip ---------------------------------- *)

let gen_addr = QCheck2.Gen.int_range 0 0xFFFF

let gen_source =
  QCheck2.Gen.oneofl
    [ Trace.App_fram; Trace.App_sram; Trace.Handler; Trace.Memcpy ]

let gen_event =
  let open QCheck2.Gen in
  oneof
    [
      (let* pc = gen_addr and* source = gen_source in
       return (Trace.Instr { pc; source }));
      (let* unstalled = int_range 0 40 and* stall = int_range 0 12 in
       return (Trace.Cycles { unstalled; stall }));
      (let* addr = gen_addr and* hit = bool and* ifetch = bool in
       return (Trace.Mem_access { addr; cls = Trace.Fram_read { hit; ifetch } }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Fram_write }));
      (let* addr = gen_addr and* ifetch = bool in
       return (Trace.Mem_access { addr; cls = Trace.Sram_read { ifetch } }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Sram_write }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Periph_access }));
      (let* target = gen_addr in
       return (Trace.Call { target }));
      return Trace.Return;
      (let* runtime = oneofl [ "swapram"; "block" ] in
       return (Trace.Runtime_event (Trace.Miss_enter { runtime })));
      (let* runtime = oneofl [ "swapram"; "block" ]
       and* disposition =
         oneofl [ "cached"; "return"; "nvm"; "frozen"; "too-large" ]
       and* fid = int_range (-1) 40 in
       return
         (Trace.Runtime_event (Trace.Miss_exit { runtime; disposition; fid })));
      (let* fid = int_range 0 40 in
       return (Trace.Runtime_event (Trace.Eviction { fid })));
      (let* on = bool in
       return (Trace.Runtime_event (Trace.Freeze { on })));
      return (Trace.Runtime_event Trace.Cache_flush);
      (let* nvm = gen_addr in
       return (Trace.Runtime_event (Trace.Block_load { nvm })));
      (let* fid = int_range 0 40 in
       return (Trace.Runtime_event (Trace.Prefetch { fid })));
      (let* name = oneofl [ "boot"; "reboot"; "phase-1" ] in
       return (Trace.Runtime_event (Trace.Phase { name })));
    ]

let gen_events = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 400) gen_event

let roundtrip_header =
  {
    Trace_file.benchmark = "roundtrip";
    seed = 7;
    frequency_mhz = 24;
    wait_states = 3;
    contention_penalty = 1;
    system = "swapram";
    placement = "code+data FRAM";
    budget = 2048;
    granularity = Trace_file.Functions [| 100; 220; 64 |];
    fingerprint = 123456789;
  }

(* Deterministic enrichment stand-ins; the property checks the decoded
   side-channel values against the same functions. *)
let roundtrip_enrich =
  {
    Trace_file.en_call_unit =
      (fun t -> if t land 3 = 0 then Some ((t lsr 2) land 15) else None);
    en_ifetch_home = (fun a -> a land lnot 63);
  }

let record_events path events =
  let w = Trace_file.create_writer path roundtrip_header in
  List.iter (Trace_file.recorder w roundtrip_enrich) events;
  Trace_file.close_writer w

let decode_all path =
  match
    Trace_file.fold path
      ~init:(fun h -> (h, []))
      ~f:(fun (h, acc) d -> (h, d :: acc))
  with
  | Error e -> Error e
  | Ok ((h, rev), _, count) -> Ok (h, List.rev rev, count)

let prop_format_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"encode -> decode is the identity"
    gen_events (fun events ->
      with_temp_trace (fun path ->
          record_events path events;
          match decode_all path with
          | Error e ->
              QCheck2.Test.fail_reportf "decode: %s"
                (Trace_file.error_message e)
          | Ok (h, decoded, count) ->
              if h <> roundtrip_header then
                QCheck2.Test.fail_reportf "header did not round-trip"
              else if count <> List.length events then
                QCheck2.Test.fail_reportf "count %d <> %d" count
                  (List.length events)
              else begin
                List.iter2
                  (fun ev (d : Trace_file.decoded) ->
                    if d.Trace_file.d_ev <> ev then
                      QCheck2.Test.fail_reportf "event did not round-trip";
                    (match ev with
                    | Trace.Call { target } ->
                        if
                          d.Trace_file.d_unit
                          <> roundtrip_enrich.Trace_file.en_call_unit target
                        then QCheck2.Test.fail_reportf "call unit mismatch"
                    | _ -> ());
                    match ev with
                    | Trace.Mem_access
                        {
                          addr;
                          cls =
                            ( Trace.Fram_read { ifetch = true; _ }
                            | Trace.Sram_read { ifetch = true } );
                        } ->
                        if
                          d.Trace_file.d_home
                          <> roundtrip_enrich.Trace_file.en_ifetch_home addr
                        then QCheck2.Test.fail_reportf "ifetch home mismatch"
                    | _ -> ())
                  events decoded;
                true
              end))

(* --- Binary format: malformed files are errors, never exceptions ------- *)

let sample_events =
  [
    Trace.Instr { pc = 0x4400; source = Trace.App_fram };
    Trace.Mem_access
      { addr = 0x4400; cls = Trace.Fram_read { hit = false; ifetch = true } };
    Trace.Cycles { unstalled = 1; stall = 3 };
    Trace.Call { target = 0x4500 };
    Trace.Runtime_event (Trace.Miss_enter { runtime = "swapram" });
    Trace.Runtime_event
      (Trace.Miss_exit { runtime = "swapram"; disposition = "cached"; fid = 2 });
    Trace.Runtime_event (Trace.Eviction { fid = 1 });
    Trace.Return;
  ]

let sample_bytes () =
  with_temp_trace (fun path ->
      record_events path sample_events;
      read_file path)

let expect_error data what =
  with_temp_trace (fun path ->
      write_file path data;
      (match Trace_file.read_header path with
      | Ok _ when String.length data < 10 ->
          Alcotest.failf "%s: header decoded from malformed file" what
      | _ -> ());
      match decode_all path with
      | Ok _ -> Alcotest.failf "%s: decoded a malformed file" what
      | Error _ -> ())

let truncation_test () =
  let data = sample_bytes () in
  let n = String.length data in
  List.iter
    (fun cut ->
      expect_error (String.sub data 0 cut) (Printf.sprintf "cut at %d" cut))
    [ 0; 1; 3; 4; 5; 6; 9; n / 4; n / 2; n - 1 ]

let version_mismatch_test () =
  let data = Bytes.of_string (sample_bytes ()) in
  Bytes.set data 4 '\xFF';
  Bytes.set data 5 '\x7F';
  with_temp_trace (fun path ->
      write_file path (Bytes.to_string data);
      match Trace_file.read_header path with
      | Error (Trace_file.Version_mismatch { found; expected }) ->
          Alcotest.(check int) "found" 0x7FFF found;
          Alcotest.(check int) "expected" Trace_file.version expected
      | Error e ->
          Alcotest.failf "expected version mismatch, got %s"
            (Trace_file.error_message e)
      | Ok _ -> Alcotest.fail "header decoded despite version skew")

let bad_magic_test () =
  let data = sample_bytes () in
  expect_error ("NOPE" ^ String.sub data 4 (String.length data - 4)) "bad magic"

let trailing_bytes_test () =
  let data = sample_bytes () ^ "\x00" in
  with_temp_trace (fun path ->
      write_file path data;
      match decode_all path with
      | Ok _ -> Alcotest.fail "decoded despite trailing bytes"
      | Error (Trace_file.Corrupt _) -> ()
      | Error e ->
          Alcotest.failf "expected corrupt, got %s" (Trace_file.error_message e))

(* --- Golden trace snapshot (seed 1) ------------------------------------ *)

(* The exact source the committed golden trace was recorded from (the
   CLI path `record --file replay_tiny.c`, which names the benchmark
   after the file). Byte-for-byte equality of a fresh recording pins
   the whole encoding: tag layout, deltas, varints, interning order.
   Any intentional format change must bump Trace_file.version and
   regenerate the snapshot. *)
let tiny_source =
  "int acc = 0;\n\n\
   int mix(int a, int b) {\n\
  \  return (a * 3 + b) & 0x7FFF;\n\
   }\n\n\
   int step(int i) {\n\
  \  acc = mix(acc, i);\n\
  \  return acc;\n\
   }\n\n\
   int main(void) {\n\
  \  for (int i = 0; i < 20; i++) {\n\
  \    acc = step(i) ^ (i << 2);\n\
  \  }\n\
  \  putchar('a' + (acc & 15));\n\
  \  return acc & 0x7FFF;\n\
   }\n"

let tiny_bench =
  {
    Workloads.Bench_def.name = "replay_tiny.c";
    short = "USR";
    source = (fun _ -> tiny_source);
    fits_data_in_sram = false;
  }

let tiny_config ?(system = "swapram") () = config_for tiny_bench system

let record_tiny ?system path =
  match Toolchain.run_recorded ~trace:path (tiny_config ?system ()) with
  | Toolchain.Completed res -> res
  | Toolchain.Crashed o ->
      Alcotest.failf "tiny recording crashed: %s" (Msp430.Cpu.outcome_name o)
  | Toolchain.Did_not_fit msg ->
      Alcotest.failf "tiny recording did not fit: %s" msg

let golden_trace_test () =
  with_temp_trace (fun trace ->
      ignore (record_tiny trace);
      let fresh = read_file trace in
      (* dune runtest runs from _build/default/test; dune exec from the
         repo root — resolve whichever layout we're in (as test_golden). *)
      let golden =
        if Sys.file_exists "golden" then "golden/replay_tiny.trace"
        else Filename.concat "test" "golden/replay_tiny.trace"
      in
      let pinned = read_file golden in
      if not (String.equal fresh pinned) then
        Alcotest.failf
          "recorded trace differs from golden snapshot (%d vs %d bytes); \
           format changes must bump Trace_file.version and regenerate \
           test/golden/replay_tiny.trace"
          (String.length fresh) (String.length pinned))

(* --- Cross-configuration validation ------------------------------------ *)

(* Simulating the trace at budget B must agree with actually running
   the system at cache size B on miss counts, for budgets where the
   real allocator doesn't fragment (footprint fits: every miss is a
   cold miss in both worlds). *)
let cross_budget_test () =
  with_temp_trace (fun trace ->
      let recorded = record_tiny trace in
      let l =
        match Engine.load trace with
        | Ok l -> l
        | Error e -> Alcotest.failf "load: %s" (Engine.error_message e)
      in
      Alcotest.(check (list string))
        "replay of the recording is exact" []
        (Toolchain.replay_mismatches l recorded);
      let fp = Engine.footprint l in
      Alcotest.(check bool) "tiny footprint fits 768 B" true (fp <= 768);
      List.iter
        (fun budget ->
          let sim =
            Engine.simulate l
              { Engine.m_budget = budget; m_policy = Engine.Lru; m_block = None }
          in
          let options =
            {
              Swapram.Config.default_options with
              Swapram.Config.cache_size = budget;
            }
          in
          let config =
            {
              (Toolchain.default_config tiny_bench) with
              Toolchain.caching = Toolchain.Swapram_cache options;
            }
          in
          match Toolchain.run config with
          | Toolchain.Completed res ->
              let stats = Option.get res.Toolchain.swapram_stats in
              Alcotest.(check int)
                (Printf.sprintf "no evictions at %d B" budget)
                0 stats.Swapram.Runtime.evictions;
              Alcotest.(check int)
                (Printf.sprintf "simulated misses = executed misses at %d B"
                   budget)
                stats.Swapram.Runtime.misses sim.Engine.s_misses
          | _ -> Alcotest.failf "execution at %d B did not complete" budget)
        [ 768; 2048 ])

(* A budget below the smallest unit caches nothing: every reference
   misses, under every policy. *)
let thrash_test () =
  with_temp_trace (fun trace ->
      ignore (record_tiny trace);
      let l = Result.get_ok (Engine.load trace) in
      List.iter
        (fun policy ->
          let sim =
            Engine.simulate l
              { Engine.m_budget = 1; m_policy = policy; m_block = None }
          in
          Alcotest.(check int)
            (Engine.policy_name policy ^ ": every ref misses")
            sim.Engine.s_refs sim.Engine.s_misses)
        [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ])

(* The reuse tracker rebuilt by replaying the trace must match the one
   the live Observe.Reuse tracker measured during execution. *)
let mrc_identity_test () =
  with_temp_trace (fun trace ->
      let config = tiny_config () in
      match
        Toolchain.run_recorded ~observe:Toolchain.metrics_observe ~trace config
      with
      | Toolchain.Completed res ->
          let live =
            match res.Toolchain.observation with
            | Some { Toolchain.o_metrics = Some m; _ } ->
                Option.get (Observe.Metrics.reuse_tracker m)
            | _ -> Alcotest.fail "metrics sampler was not attached"
          in
          let replayed =
            match Engine.replay_metrics trace with
            | Ok (m, _) -> Option.get (Observe.Metrics.reuse_tracker m)
            | Error e -> Alcotest.fail (Engine.error_message e)
          in
          Alcotest.(check int)
            "accesses" (Observe.Reuse.accesses live)
            (Observe.Reuse.accesses replayed);
          Alcotest.(check int)
            "units" (Observe.Reuse.units live)
            (Observe.Reuse.units replayed);
          Alcotest.(check int)
            "footprint" (Observe.Reuse.footprint live)
            (Observe.Reuse.footprint replayed);
          Alcotest.(check int)
            "measured misses"
            (Observe.Reuse.measured_misses live)
            (Observe.Reuse.measured_misses replayed);
          List.iter
            (fun budget ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "predicted miss rate at %d" budget)
                (Observe.Reuse.predicted_miss_rate live ~budget)
                (Observe.Reuse.predicted_miss_rate replayed ~budget))
            [ 128; 256; 512; 1024; 4096 ]
      | _ -> Alcotest.fail "tiny recording did not complete")

(* Retargeting: one trace recorded at 24 MHz recomputes the 8 MHz
   system — different wait states, different energy point — and must
   agree bit-for-bit with actually executing at 8 MHz. *)
let frequency_retarget_test () =
  with_temp_trace (fun trace ->
      let b = Workloads.Suite.rsa in
      let config = config_for b "swapram" in
      (match Toolchain.run_recorded ~trace config with
      | Toolchain.Completed _ -> ()
      | _ -> Alcotest.fail "rsa recording did not complete");
      let l = Result.get_ok (Engine.load trace) in
      let t =
        match Engine.exact ~frequency_mhz:8 l with
        | Ok t -> t
        | Error msg -> Alcotest.failf "exact at 8 MHz: %s" msg
      in
      match
        Toolchain.run
          { config with Toolchain.frequency = Platform.Mhz8 }
      with
      | Toolchain.Completed res ->
          let stats = res.Toolchain.stats in
          Alcotest.(check int)
            "unstalled cycles" stats.Trace.unstalled_cycles
            t.Engine.t_unstalled;
          Alcotest.(check int)
            "stall cycles" stats.Trace.stall_cycles t.Engine.t_stall;
          Alcotest.(check int)
            "total cycles"
            (Trace.total_cycles stats)
            t.Engine.t_cycles;
          Alcotest.(check bool)
            "energy bitwise" true
            (res.Toolchain.energy.Msp430.Energy.energy_nj
             = t.Engine.t_energy_nj);
          Alcotest.(check bool)
            "time bitwise" true
            (res.Toolchain.energy.Msp430.Energy.time_s = t.Engine.t_time_s)
      | _ -> Alcotest.fail "8 MHz execution did not complete")

(* --- Decode-cache staleness ------------------------------------------- *)

(* [Engine.load_cached] serves a decoded trace only while the file
   behind the path is unchanged: rewriting it in place with a
   different recording must yield the new trace, never the cached
   decode of the old one. *)
let stale_trace_test () =
  with_temp_trace (fun trace ->
      let load () =
        match Engine.load_cached trace with
        | Ok l -> l
        | Error e -> Alcotest.failf "load_cached: %s" (Engine.error_message e)
      in
      ignore (record_tiny trace);
      let a = load () in
      Alcotest.(check string)
        "first load is the swapram recording" "swapram"
        a.Engine.header.Trace_file.system;
      ignore (record_tiny ~system:"block" trace);
      let b = load () in
      Alcotest.(check string)
        "header follows the file" "block" b.Engine.header.Trace_file.system;
      if a.Engine.refs = b.Engine.refs then
        Alcotest.fail
          "rewritten trace returned the old recording's references (stale \
           decode-cache hit)")

let suite =
  [
    Alcotest.test_case "format round-trip errors: truncation" `Quick
      truncation_test;
    Alcotest.test_case "format round-trip errors: version mismatch" `Quick
      version_mismatch_test;
    Alcotest.test_case "format round-trip errors: bad magic" `Quick
      bad_magic_test;
    Alcotest.test_case "format round-trip errors: trailing bytes" `Quick
      trailing_bytes_test;
    QCheck_alcotest.to_alcotest prop_format_roundtrip;
    Alcotest.test_case "golden trace snapshot (seed 1)" `Quick
      golden_trace_test;
    Alcotest.test_case "simulate at budget B = execute at cache size B" `Quick
      cross_budget_test;
    Alcotest.test_case "sub-unit budget thrashes under every policy" `Quick
      thrash_test;
    Alcotest.test_case "replayed MRC = executed MRC" `Quick mrc_identity_test;
    Alcotest.test_case "frequency retarget 24 -> 8 MHz = fresh 8 MHz run"
      `Quick frequency_retarget_test;
    Alcotest.test_case "load_cached sees in-place rewrite" `Quick
      stale_trace_test;
    QCheck_alcotest.to_alcotest prop_record_replay_equals_execute;
    Alcotest.test_case "replay equivalence: Table-2 x {swapram, block}" `Quick
      equivalence_test;
  ]
