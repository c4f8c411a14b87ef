(* Host-performance benchmark program.

   One process measures one workload. It sets the workload up several
   times (the median is [setup_s]), then runs the workload's batch of
   operations back to back in a closed loop until [--seconds] have
   passed, checking the outputs of every pass. With [--trace 1] it
   alternates untraced and traced passes: a traced pass wraps each call
   into a library layer in an in-memory span, adds the probe calls the
   per-layer metrics need, and the spans are written out when the run
   ends. Times are host wall-clock seconds; simulated statistics only
   serve as correctness checks.

   The result is one JSON object on the last line of standard output;
   perfbench/run.py turns it into the benchmark report. *)

module Json = Observe.Json
module Tc = Experiments.Toolchain
module Dse = Experiments.Dse
module Engine = Replay.Engine
module Trace_file = Replay.Trace_file
module Campaign = Faultinject.Campaign
module Injector = Faultinject.Injector
module Oracle = Faultinject.Oracle
module Suite = Workloads.Suite

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Worker processes of [Dse.run], [Dse.record_workloads] and
   [Campaign.run]. Every workload runs in this one process: on a host
   that lends the benchmark a couple of shared cores, forked workers
   made the timings follow the scheduler (run-to-run spreads of 45% on
   dse-grid and campaign), and an operation in this process can be
   bracketed by the host-speed probe below. Fixed rather than read from
   the host so results stay comparable across hosts. *)
let jobs = 1

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* --- Output JSON ------------------------------------------------------ *)

(* Observe.Json prints floats at 6 significant digits; measured values
   are reported with all their digits. *)
type out =
  | N of float
  | I of int
  | B of bool
  | S of string
  | L of out list
  | O of (string * out) list

let rec render buf = function
  | N f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | I i -> Buffer.add_string buf (string_of_int i)
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | S s -> Buffer.add_string buf (Json.to_string (Json.String s))
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          render buf (S k);
          Buffer.add_char buf ':';
          render buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string o =
  let buf = Buffer.create 4096 in
  render buf o;
  Buffer.contents buf

(* --- Spans ------------------------------------------------------------ *)

let layer_of name = String.sub name 0 (String.index name '.')

(* In-memory spans around calls into the library. A span's name is its
   metric prefix, "<layer>.<call>"; [op] names the operation (cell,
   workload, trial) it belongs to, so spans of one operation share an
   identifier. Disabled spans cost one branch. *)
module Spans = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    op : string;
    t0 : float;
    mutable t1 : float;
  }

  let on = ref false
  let recorded : t list ref = ref []
  let stack = ref [ -1 ]
  let next = ref 0

  let with_ ?(op = "") name f =
    if not !on then f ()
    else begin
      let s =
        { id = !next; parent = List.hd !stack; name; op; t0 = now (); t1 = 0.0 }
      in
      incr next;
      stack := s.id :: !stack;
      Fun.protect f ~finally:(fun () ->
          s.t1 <- now ();
          stack := List.tl !stack;
          recorded := s :: !recorded)
    end

  let dur s = s.t1 -. s.t0

  (* Chrome trace-event JSON: one complete event per span. *)
  let chrome spans =
    L
      (List.map
         (fun s ->
           O
             [
               ("name", S s.name);
               ("cat", S (layer_of s.name));
               ("ph", S "X");
               ("ts", N (s.t0 *. 1e6));
               ("dur", N (dur s *. 1e6));
               ("pid", I 1);
               ("tid", I 1);
               ("args", O [ ("id", I s.id); ("parent", I s.parent); ("op", S s.op) ]);
             ])
         (List.sort (fun a b -> compare a.id b.id) spans))
end

let span = Spans.with_

(* --- Host-speed probe ------------------------------------------------- *)

(* The speed of a shared host drifts: for a minute at a time neighbours
   slow one simulator cell by up to 1.6x, more than medians within one
   run can absorb. So every operation is bracketed by a fixed integer
   kernel that lives here, where no library change can move it, and
   its time is scaled by [probe_ref_s] over the probe time: seconds at
   a reference host speed. Raw times are reported too. *)
let probe_mem = Array.make 4096 0

let probe_kernel () =
  let acc = ref 1 and pc = ref 0 and i = ref 0 in
  while !i < 270_000 do
    (match !pc with
    | 0 -> acc := (!acc * 31) + !i
    | 1 -> probe_mem.(!acc land 4095) <- !acc
    | 2 -> acc := !acc lxor probe_mem.((!acc lsr 3) land 4095)
    | 3 -> if !acc land 1 = 0 then acc := !acc lsr 1 else acc := !acc + 7
    | 4 -> acc := !acc land 0xFFFFFF
    | 5 -> probe_mem.(!i land 4095) <- probe_mem.(!i land 4095) + 1
    | 6 -> acc := !acc + probe_mem.(!acc land 4095)
    | _ -> incr i);
    pc := (!pc + 1) land 7
  done;
  !acc

let probe_ref_s = 0.0085

(* Median of three short runs, so a transient (an interrupt, a burst of
   page-cache writeback) does not count. *)
let probe () =
  median
    (List.init 3 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (probe_kernel ()));
         now () -. t0))

(* The probe after one operation is the probe before the next; [None]
   at the start of a pass or set-up. *)
let last_probe = ref None

type timing = { raw : float; adjusted : float }

let timed f =
  (* Traced passes feed no end-to-end metric; a probe there would only
     show up as time no span covers. *)
  if !Spans.on then begin
    let t0 = now () in
    let r = f () in
    let raw = now () -. t0 in
    (r, { raw; adjusted = raw })
  end
  else begin
    let before = match !last_probe with Some p -> p | None -> probe () in
    let t0 = now () in
    let r = f () in
    let raw = now () -. t0 in
    let after = probe () in
    last_probe := Some after;
    (* A transient can only slow a probe down, so the faster of the two
       probes around the operation is the better estimate. *)
    (r, { raw; adjusted = raw *. probe_ref_s /. Float.min before after })
  end

(* --- Workload plumbing ------------------------------------------------ *)

type ctx = {
  seed : int;
  tiny : bool;
  perturb : string;  (** name of the expected value to perturb; "" for none *)
  work : string;  (** scratch directory inside the checkout *)
  expected : Json.t option;  (** committed digests for this scale and seed *)
}

(* One pass over the workload's batch. [op_walls] times each operation;
   output checks run outside them. *)
type pass = {
  op_walls : (string * timing) list;
  ops : int;
  failed : int;
  failures : string list;
  work_done : (string * float) list;
      (** simulated instructions, trace events, ... for rate metrics *)
  probes : (string * float) list;
      (** traced passes: per-layer values that are not span sums *)
  digest : string option;
}

type instance = { run : traced:bool -> pass; cleanup : unit -> unit }

let pass_wall p = List.fold_left (fun a (_, t) -> a +. t.raw) 0.0 p.op_walls

(* Failure bookkeeping for one pass: every operation is one unit of
   [ops]; an operation with any failed check counts once. *)
type checks = { mutable c_failed : int; mutable c_notes : string list }

let new_checks () = { c_failed = 0; c_notes = [] }

let fail_op c ?(weight = 1) msgs =
  if msgs <> [] then begin
    c.c_failed <- c.c_failed + weight;
    c.c_notes <- List.rev_append msgs c.c_notes
  end

let perturbed ctx name = ctx.perturb = name

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path

let digest_hex s = Digest.to_hex (Digest.string s)

(* Committed digest check: with a committed value the digest must match
   it; without one (a seed outside the committed set) every pass of the
   run must agree with the first. *)
let first_digest : (string, string) Hashtbl.t = Hashtbl.create 4

let check_digest ctx ~key digest =
  let expected =
    match Option.bind ctx.expected (Json.member key) with
    | Some j -> Json.to_str j
    | None -> None
  in
  let expected =
    if perturbed ctx "digest" then Option.map (fun d -> "0" ^ d) expected
    else expected
  in
  match expected with
  | Some e ->
      if e = digest then []
      else [ Printf.sprintf "%s digest %s, committed %s" key digest e ]
  | None -> (
      match Hashtbl.find_opt first_digest key with
      | None ->
          Hashtbl.replace first_digest key digest;
          []
      | Some d when d = digest -> []
      | Some d -> [ Printf.sprintf "%s digest %s differs from first pass %s" key digest d ])

let bench_name (b : Workloads.Bench_def.t) = b.Workloads.Bench_def.name

let source_of ctx (b : Workloads.Bench_def.t) = b.Workloads.Bench_def.source ctx.seed

let config_of ctx bench caching =
  { (Tc.default_config bench) with Tc.seed = ctx.seed; caching }

let swapram = Tc.Swapram_cache Swapram.Config.default_options
let block = Tc.Block_cache Blockcache.Config.default_options

(* Compile and build one configuration layer by layer through the
   layers' own entry points, then prepare it through the toolchain:
   the per-layer probe of a traced pass. *)
let build_probe ~op config source =
  let program =
    span ~op "minic.compile" (fun () -> Minic.Driver.program_of_source source)
  in
  (match config.Tc.caching with
  | Tc.Baseline | Tc.Checkpoint_runtime _ ->
      ignore (span ~op "masm.assemble" (fun () -> Masm.Assembler.assemble program))
  | Tc.Swapram_cache options ->
      ignore
        (span ~op "swapram.build" (fun () -> Swapram.Pipeline.build ~options program))
  | Tc.Block_cache options ->
      ignore
        (span ~op "blockcache.build" (fun () ->
             Blockcache.Pipeline.build ~options program)));
  span ~op "toolchain.prepare" (fun () -> Tc.prepare config)

(* Interpreter reference for a benchmark's return value and UART.
   Minic.Interp mis-executes dijkstra (under the interpreter the
   program's own Dijkstra/Bellman-Ford cross-check fails and it returns
   0xDEAD), so dijkstra cells are checked against the baseline system's
   run of the same pass instead. *)
let oracle_of ctx bench =
  if bench_name bench = "dijkstra" then None
  else Some (Minic.Interp.run_source (source_of ctx bench))

(* [reference] is the interpreter's (return value, UART), or for a
   benchmark without an interpreter oracle the baseline system's. *)
let output_check ctx ~label ~reference (r : Tc.result) =
  match reference with
  | None -> [ label ^ ": no reference run to compare with" ]
  | Some (rv, uart) ->
      let rv = if perturbed ctx "oracle" then rv + 1 else rv in
      if r.Tc.return_value = rv && r.Tc.uart = uart then []
      else
        [
          Printf.sprintf "%s: return %d / %d UART bytes, reference %d / %d bytes" label
            r.Tc.return_value (String.length r.Tc.uart) rv (String.length uart);
        ]

let interp_reference = Option.map (fun (o : Minic.Interp.result) -> (o.Minic.Interp.return_value, o.Minic.Interp.output))

(* --- exec-suite ------------------------------------------------------- *)

(* Simulated fields of bench/baseline.json (seed 1, 24 MHz, default
   configurations), rendered the way the report renders them. *)
let sim_fields (r : Tc.result) =
  let st = r.Tc.stats in
  [
    ("cycles", Json.Int (Msp430.Trace.total_cycles st));
    ("unstalled_cycles", Json.Int st.Msp430.Trace.unstalled_cycles);
    ("stall_cycles", Json.Int st.Msp430.Trace.stall_cycles);
    ("instructions", Json.Int st.Msp430.Trace.instructions);
    ("fram_accesses", Json.Int (Msp430.Trace.fram_accesses st));
    ("sram_accesses", Json.Int (Msp430.Trace.sram_accesses st));
    ("energy_nj", Json.Float r.Tc.energy.Msp430.Energy.energy_nj);
    ("time_s", Json.Float r.Tc.energy.Msp430.Energy.time_s);
    ("return_value", Json.Int r.Tc.return_value);
    ("code_bytes", Json.Int r.Tc.sizes.Tc.code_bytes);
    ("data_bytes", Json.Int r.Tc.sizes.Tc.data_bytes);
  ]

let baseline_path = Filename.concat "bench" "baseline.json"

let load_baseline () =
  let ic = open_in_bin baseline_path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok j -> j
  | Error e -> failwith (baseline_path ^ ": " ^ e)

let baseline_cell baseline ~bench ~system =
  Option.bind (Option.bind (Json.member "benchmarks" baseline) Json.to_list)
    (List.find_map (fun b ->
         if Option.bind (Json.member "name" b) Json.to_str = Some bench then
           Option.bind (Json.member "systems" b) (Json.member system)
         else None))

let exec_benchmarks ctx =
  if ctx.tiny then [ Suite.crc ]
  else [ Suite.crc; Suite.rc4; Suite.aes; Suite.bitcount; Suite.rsa; Suite.lzfx; Suite.dijkstra ]

let exec_setup ctx =
  let baseline = load_baseline () in
  let cells =
    List.concat_map
      (fun bench ->
        let oracle = oracle_of ctx bench in
        List.map
          (fun caching ->
            let system = Tc.caching_name caching in
            let label = bench_name bench ^ "/" ^ system in
            let expect =
              match baseline_cell baseline ~bench:(bench_name bench) ~system with
              | Some c -> c
              | None -> failwith (label ^ ": no cell in " ^ baseline_path)
            in
            let fits = Option.bind (Json.member "status" expect) Json.to_str = Some "completed" in
            (label, config_of ctx bench caching, source_of ctx bench, oracle, fits, expect))
          [ Tc.Baseline; swapram; block ])
      (exec_benchmarks ctx)
  in
  (* Baseline-system outputs of this pass, the reference for
     benchmarks without an interpreter oracle. *)
  let baseline_out = Hashtbl.create 8 in
  let check i (label, config, _, oracle, fits, expect) outcome =
    let fits = if perturbed ctx "fit" && i = 0 then not fits else fits in
    match outcome with
    | Tc.Did_not_fit _ when fits -> [ label ^ ": did not fit, expected to fit" ]
    | Tc.Did_not_fit _ -> []
    | Tc.Crashed o -> [ label ^ ": crashed: " ^ Msp430.Cpu.outcome_name o ]
    | Tc.Completed _ when not fits -> [ label ^ ": fits, expected did-not-fit" ]
    | Tc.Completed r ->
        let simulated =
          if ctx.seed <> 1 then []
          else
            List.filter_map
              (fun (k, v) ->
                let v =
                  match v with
                  | Json.Int n when k = "cycles" && perturbed ctx "baseline" -> Json.Int (n + 1)
                  | v -> v
                in
                let want = Option.map Json.to_string (Json.member k expect) in
                if want = Some (Json.to_string v) then None
                else
                  Some
                    (Printf.sprintf "%s: %s %s, baseline %s" label k (Json.to_string v)
                       (Option.value want ~default:"missing")))
              (sim_fields r)
        in
        let bench = bench_name config.Tc.benchmark in
        (match config.Tc.caching with
        | Tc.Baseline -> Hashtbl.replace baseline_out bench (r.Tc.return_value, r.Tc.uart)
        | _ -> ());
        let reference =
          match oracle with
          | Some _ -> interp_reference oracle
          | None -> Hashtbl.find_opt baseline_out bench
        in
        output_check ctx ~label ~reference r @ simulated
  in
  let run ~traced =
    Hashtbl.reset baseline_out;
    let c = new_checks () in
    let walls = ref [] and instr = ref 0 and cycles = ref 0 in
    List.iteri
      (fun i ((label, config, source, _, _, _) as cell) ->
        (* Each cell starts from a compacted heap, as in a fresh process:
           the previous cell's garbage neither slows it nor moves the
           peak RSS. *)
        Gc.compact ();
        let outcome, t =
          timed @@ fun () ->
          if not traced then Tc.run config
          else
            match build_probe ~op:label config source with
            | Error msg -> Tc.Did_not_fit msg
            | Ok p -> (
                Tc.boot p;
                let cpu = p.Tc.p_system.Msp430.Platform.cpu in
                match
                  span ~op:label "msp430.superblock" (fun () ->
                      Msp430.Cpu.run ~fuel:config.Tc.fuel cpu)
                with
                | Msp430.Cpu.Halted ->
                    Tc.Completed (span ~op:label "toolchain.collect" (fun () -> Tc.collect p))
                | o -> Tc.Crashed o)
        in
        walls := (label, t) :: !walls;
        (match outcome with
        | Tc.Completed r ->
            let st = r.Tc.stats in
            instr := !instr + st.Msp430.Trace.instructions;
            cycles := !cycles + Msp430.Trace.total_cycles st
        | Tc.Did_not_fit _ | Tc.Crashed _ -> ());
        fail_op c (check i cell outcome))
      cells;
    {
      op_walls = List.rev !walls;
      ops = List.length cells;
      failed = c.c_failed;
      failures = c.c_notes;
      work_done = [ ("instructions", float_of_int !instr) ];
      probes =
        [
          ("msp430.sim_instructions", float_of_int !instr);
          ("msp430.sim_cycles", float_of_int !cycles);
        ];
      digest = None;
    }
  in
  { run; cleanup = ignore }

(* --- record-load ------------------------------------------------------ *)

let noop_visitor _ =
  {
    Trace_file.v_instr = (fun _ _ -> ());
    v_cycles = (fun _ _ -> ());
    v_fram_read = (fun _ _ -> ());
    v_fram_ifetch = (fun _ _ _ -> ());
    v_fram_write = ignore;
    v_sram_read = ignore;
    v_sram_ifetch = (fun _ _ -> ());
    v_sram_write = ignore;
    v_periph = ignore;
    v_call = (fun _ _ -> ());
    v_return = ignore;
    v_miss_enter = ignore;
    v_miss_exit = (fun _ _ _ -> ());
    v_eviction = ignore;
    v_freeze = ignore;
    v_cache_flush = ignore;
    v_block_load = ignore;
    v_prefetch = ignore;
    v_phase = ignore;
  }

let record_setup ctx =
  let benches =
    if ctx.tiny then [ Suite.crc ] else [ Suite.crc; Suite.aes; Suite.bitcount; Suite.rc4 ]
  in
  let dir = fresh_dir (Filename.concat ctx.work "record") in
  let cells =
    List.concat_map
      (fun bench ->
        let oracle = oracle_of ctx bench in
        List.map
          (fun caching ->
            let label = bench_name bench ^ "/" ^ Tc.caching_name caching in
            (label, config_of ctx bench caching, oracle))
          [ swapram; block ])
      benches
  in
  let run ~traced =
    let c = new_checks () in
    let walls = ref [] and instr = ref 0 and cycles = ref 0 in
    let events = ref 0 and bytes = ref 0 and decoded = ref 0 in
    List.iter
      (fun (label, config, oracle) ->
        let trace = Filename.concat dir (String.map (function '/' -> '-' | ch -> ch) label ^ ".trace") in
        Gc.compact ();
        let (outcome, replayed), t =
          timed @@ fun () ->
          let outcome =
            span ~op:label "trace_file.record" (fun () -> Tc.run_recorded ~trace config)
          in
          ( outcome,
            match outcome with
            | Tc.Completed _ -> (
                match span ~op:label "engine.load" (fun () -> Engine.load trace) with
                | Error e -> Error (Engine.error_message e)
                | Ok l -> (
                    match span ~op:label "engine.exact" (fun () -> Engine.exact l) with
                    | Error e -> Error e
                    | Ok t -> Ok (l, t)))
            | Tc.Did_not_fit _ | Tc.Crashed _ -> Error "not recorded" )
        in
        walls := (label, t) :: !walls;
        let reference =
          if not traced then None
          else begin
            (match
               span ~op:label "trace_file.decode" (fun () ->
                   Trace_file.iter trace ~make:noop_visitor)
             with
            | Ok (_, n) -> decoded := !decoded + n
            | Error _ -> ());
            Some
              (span ~op:label "toolchain.reference_run" (fun () ->
                   Tc.run { config with Tc.engine = Msp430.Cpu.Reference }))
          end
        in
        (if Sys.file_exists trace then Sys.remove trace);
        let msgs =
          match (outcome, replayed) with
          | Tc.Did_not_fit m, _ -> [ label ^ ": did not fit: " ^ m ]
          | Tc.Crashed o, _ -> [ label ^ ": crashed: " ^ Msp430.Cpu.outcome_name o ]
          | Tc.Completed _, Error e -> [ label ^ ": replay failed: " ^ e ]
          | Tc.Completed r, Ok (l, t) ->
              let st = r.Tc.stats in
              instr := !instr + st.Msp430.Trace.instructions;
              cycles := !cycles + Msp430.Trace.total_cycles st;
              events := !events + l.Engine.events;
              bytes := !bytes + l.Engine.bytes;
              let want_cycles =
                Msp430.Trace.total_cycles st + if perturbed ctx "exact" then 1 else 0
              in
              let exact =
                if
                  t.Engine.t_cycles = want_cycles
                  && t.Engine.t_stall = st.Msp430.Trace.stall_cycles
                  && t.Engine.t_unstalled = st.Msp430.Trace.unstalled_cycles
                  && t.Engine.t_energy_nj = r.Tc.energy.Msp430.Energy.energy_nj
                then []
                else
                  [
                    Printf.sprintf "%s: replayed %d cycles / %d stalls / %.17g nJ, executed %d / %d / %.17g"
                      label t.Engine.t_cycles t.Engine.t_stall t.Engine.t_energy_nj want_cycles
                      st.Msp430.Trace.stall_cycles r.Tc.energy.Msp430.Energy.energy_nj;
                  ]
              in
              let same_as_reference =
                match reference with
                | None -> []
                | Some (Tc.Completed r') when sim_fields r' = sim_fields r -> []
                | Some _ -> [ label ^ ": unobserved reference run differs from the recorded run" ]
              in
              output_check ctx ~label ~reference:(interp_reference oracle) r @ exact @ same_as_reference
        in
        fail_op c msgs)
      cells;
    {
      op_walls = List.rev !walls;
      ops = List.length cells;
      failed = c.c_failed;
      failures = c.c_notes;
      work_done =
        [
          ("instructions", float_of_int !instr);
          ("events", float_of_int !events);
          ("trace_bytes", float_of_int !bytes);
        ];
      probes =
        [
          ("msp430.sim_instructions", float_of_int !instr);
          ("msp430.sim_cycles", float_of_int !cycles);
          ("decoded_events", float_of_int !decoded);
        ];
      digest = None;
    }
  in
  { run; cleanup = (fun () -> rm_rf dir) }

(* --- dse-grid --------------------------------------------------------- *)

(* The budget step is the workload's length knob: the default grid's
   512 B..16 KiB range at a coarser step. *)
let dse_grid ctx =
  let step = if ctx.tiny then 2048 else 256 in
  { Dse.default_grid with Dse.g_budgets = List.init (((16384 - 512) / step) + 1) (fun i -> 512 + (i * step)) }

(* Effective block sizes of a workload, as the explorer normalizes
   them: multiples of a line trace's recorded slot, deduplicated. *)
let effective_blocks grid (w : Dse.workload) =
  match w.Dse.w_line_bytes with
  | None -> [ None ]
  | Some slot ->
      List.map (function None -> slot | Some b -> max 1 (b / slot) * slot) grid.Dse.g_blocks
      |> List.sort_uniq compare
      |> List.map Option.some

let models grid w policy =
  List.concat_map
    (fun m_block ->
      List.map (fun m_budget -> { Engine.m_budget; m_policy = policy; m_block }) grid.Dse.g_budgets)
    (effective_blocks grid w)

let points_of grid (w : Dse.workload) l sims =
  List.concat_map
    (fun ((m : Engine.model), sim) ->
      List.map
        (fun freq ->
          {
            Dse.p_workload = Dse.workload_name w;
            p_budget = m.Engine.m_budget;
            p_policy = Engine.policy_name m.Engine.m_policy;
            p_block = Option.value m.Engine.m_block ~default:0;
            p_frequency_mhz = freq;
            p_obj = Dse.objectives_of l ~frequency_mhz:freq ~budget:m.Engine.m_budget sim;
          })
        grid.Dse.g_frequencies)
    sims

let load_trace trace =
  match Engine.load_cached trace with
  | Ok l -> l
  | Error e -> failwith (trace ^ ": " ^ Engine.error_message e)

let frontier_json pts = Json.to_string (Json.List (List.map Dse.point_json pts))

(* Seeded spot checks of one workload's result: sampled frontier
   points must equal a one-model [Engine.simulate] of their cell, and
   sampled grid cells must be on or behind the frontier. *)
let dse_spot_checks ctx grid rng (w : Dse.workload) (f : Dse.frontier) =
  let l = load_trace w.Dse.w_trace in
  let name = Dse.workload_name w in
  let objectives (m : Engine.model) freq =
    let o = Dse.objectives_of l ~frequency_mhz:freq ~budget:m.Engine.m_budget (Engine.simulate l m) in
    if perturbed ctx "sample" then { o with Dse.o_cycles = o.Dse.o_cycles + 1 } else o
  in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let frontier = f.Dse.f_frontier in
  let on_frontier =
    List.init (min 4 (List.length frontier)) (fun _ ->
        let p = pick frontier in
        let m =
          {
            Engine.m_budget = p.Dse.p_budget;
            m_policy = Option.get (Engine.policy_of_string p.Dse.p_policy);
            m_block = (if p.Dse.p_block = 0 then None else Some p.Dse.p_block);
          }
        in
        if objectives m p.Dse.p_frequency_mhz = p.Dse.p_obj then []
        else [ Printf.sprintf "%s: frontier point at %d B/%s differs from simulate" name p.Dse.p_budget p.Dse.p_policy ])
  in
  let behind =
    List.init 4 (fun _ ->
        let m = pick (models grid w (pick grid.Dse.g_policies)) in
        let o = objectives m (pick grid.Dse.g_frequencies) in
        if List.exists (fun q -> q.Dse.p_obj = o || Dse.dominates q.Dse.p_obj o) frontier then []
        else [ Printf.sprintf "%s: cell %d B/%s is neither on nor behind the frontier" name m.Engine.m_budget (Engine.policy_name m.Engine.m_policy) ])
  in
  List.concat (on_frontier @ behind)

(* One operation per trace: clear the decode cache, load the trace and
   run the explorer over the grid for that workload alone. The digest
   covers every workload's report object. *)
let dse_setup ctx =
  let benchmarks = if ctx.tiny then [ Suite.crc ] else [ Suite.crc; Suite.bitcount; Suite.aes ] in
  let dir = fresh_dir (Filename.concat ctx.work "dse") in
  let workloads =
    match Dse.record_workloads ~seed:ctx.seed ~benchmarks ~jobs ~dir () with
    | Ok ws -> ws
    | Error e -> failwith ("dse-grid set-up: " ^ e)
  in
  if List.length workloads <> 2 * List.length benchmarks then
    failwith "dse-grid set-up: a workload did not fit";
  let grid = dse_grid ctx in
  let nfreq = List.length grid.Dse.g_frequencies in
  let points_of_workload w =
    List.length grid.Dse.g_policies * List.length (models grid w Engine.Lru) * nfreq
  in
  let run ~traced =
    let c = new_checks () in
    let rng = Random.State.make [| ctx.seed |] in
    let walls = ref [] and points = ref 0 and reports = ref [] in
    let decoded = ref 0 and kernel = ref 0.0 in
    let computed = ref 0 and collapsed = ref 0 and frontier_points = ref 0 in
    List.iter
      (fun w ->
        let op = Dse.workload_name w in
        let expected_points = points_of_workload w in
        points := !points + expected_points;
        Gc.compact ();
        let (l, outcome), t =
          timed @@ fun () ->
          Engine.clear_load_cache ();
          let l = span ~op "engine.load" (fun () -> load_trace w.Dse.w_trace) in
          (l, span ~op "parallel.dse_run" (fun () -> Dse.run ~jobs grid [ w ]))
        in
        walls := (op, t) :: !walls;
        match outcome with
        | Error e -> fail_op c ~weight:expected_points [ op ^ ": " ^ e ]
        | Ok o ->
            let f = List.hd o.Dse.d_frontiers in
            fail_op c ~weight:f.Dse.f_points (dse_spot_checks ctx grid rng w f);
            if o.Dse.d_points_total <> expected_points then
              fail_op c ~weight:expected_points
                [ Printf.sprintf "%s: %d points, grid has %d" op o.Dse.d_points_total expected_points ];
            reports := Dse.json ~slim:true grid o :: !reports;
            computed := !computed + o.Dse.d_sims_computed;
            collapsed := !collapsed + o.Dse.d_sims_collapsed;
            frontier_points := !frontier_points + List.length f.Dse.f_frontier;
            (* Traced passes re-run the explorer's kernels layer by
               layer: the LRU stack pass, the LFU and Cost_aware heap
               passes, and the Pareto reduction over their sims, whose
               frontier must equal the explorer's. *)
            if traced then begin
              (match
                 span ~op "trace_file.decode" (fun () -> Trace_file.iter w.Dse.w_trace ~make:noop_visitor)
               with
              | Ok (_, n) -> decoded := !decoded + n
              | Error _ -> ());
              let timed name f =
                let t = now () in
                let r = span ~op name f in
                kernel := !kernel +. (now () -. t);
                r
              in
              let lru =
                List.concat_map
                  (fun block ->
                    let ms = List.filter (fun m -> m.Engine.m_block = block) (models grid w Engine.Lru) in
                    List.combine ms
                      (timed "engine.lru_kernel" (fun () ->
                           Engine.simulate_all_budgets ?block l grid.Dse.g_budgets)))
                  (effective_blocks grid w)
              in
              let heap name policy =
                let ms = models grid w policy in
                List.combine ms (timed name (fun () -> Engine.simulate_many l ms))
              in
              let lfu = heap "engine.heap_lfu" Engine.Lfu in
              let cost = heap "engine.heap_cost" Engine.Cost_aware in
              let front = span ~op "dse.pareto" (fun () -> Dse.pareto (points_of grid w l (lru @ lfu @ cost))) in
              if frontier_json front <> frontier_json f.Dse.f_frontier then
                fail_op c ~weight:f.Dse.f_points [ op ^ ": layer-by-layer frontier differs from the explorer's" ]
            end)
      workloads;
    let digest = digest_hex (Json.to_string (Json.List (List.rev !reports))) in
    fail_op c ~weight:!points (check_digest ctx ~key:"frontier" digest);
    {
      op_walls = List.rev !walls;
      ops = !points;
      failed = min !points c.c_failed;
      failures = c.c_notes;
      work_done = [ ("points", float_of_int !points) ];
      probes =
        (if not traced then []
         else
           [
             ("decoded_events", float_of_int !decoded);
             ("serial_kernel_s", !kernel);
             ("engine.sims_collapsed_ratio", ratio (float_of_int !collapsed) (float_of_int !computed));
             ("dse.frontier_points", float_of_int !frontier_points);
           ]);
      digest = Some digest;
    }
  in
  { run; cleanup = (fun () -> rm_rf dir) }

(* --- campaign --------------------------------------------------------- *)

let campaign_plan ctx =
  {
    Campaign.default_plan with
    Campaign.p_benchmarks = [ Suite.journal ];
    p_runtimes = Campaign.default_runtimes;
    p_samplers = [ Campaign.Uniform ];
    p_trials = (if ctx.tiny then 4 else 40);
    p_seed = ctx.seed;
  }

(* One operation per runtime: a campaign over that runtime's cell alone
   (so every cell draws the trial seeds of cell 0). The digest covers
   every cell's report. *)
let campaign_setup ctx =
  let plan = campaign_plan ctx in
  let bench = Suite.journal in
  let cells =
    List.map
      (fun rt ->
        let config = { (Tc.default_config bench) with Tc.caching = rt } in
        match Oracle.golden ~fuel:plan.Campaign.p_fuel config with
        | Ok g -> (Tc.caching_name rt, { plan with Campaign.p_runtimes = [ rt ] }, config, g)
        | Error e -> failwith ("campaign set-up: golden run failed: " ^ e))
      plan.Campaign.p_runtimes
  in
  let want_trials = if perturbed ctx "tally" then plan.Campaign.p_trials + 1 else plan.Campaign.p_trials in
  let run ~traced =
    let c = new_checks () in
    let walls = ref [] and trials = ref 0 and reports = ref [] in
    let serial = ref 0.0 and reboots = ref 0 and livelocks = ref 0 in
    let instr = ref 0 and cycles = ref 0 and serial_trials = ref 0 in
    List.iter
      (fun (name, cell_plan, config, golden) ->
        trials := !trials + plan.Campaign.p_trials;
        Gc.compact ();
        let outcome, t =
          timed (fun () -> span ~op:name "parallel.campaign_run" (fun () -> Campaign.run ~jobs cell_plan))
        in
        walls := (name, t) :: !walls;
        match outcome with
        | Error e -> fail_op c ~weight:plan.Campaign.p_trials [ name ^ ": " ^ e ]
        | Ok o ->
            reports := Campaign.to_json o :: !reports;
            let cr = List.hd o.Campaign.o_cells in
            let t = cr.Campaign.cr_tally in
            let label = cr.Campaign.cr_cell.Campaign.cl_label in
            let msgs =
              (if t.Campaign.t_trials = want_trials && o.Campaign.o_trials = want_trials then []
               else [ Printf.sprintf "%s: %d trials, planned %d" label t.Campaign.t_trials want_trials ])
              @ (if t.Campaign.t_consistent + t.Campaign.t_mismatches + t.Campaign.t_fault_escapes
                    + t.Campaign.t_livelocks
                    = t.Campaign.t_trials
                    && t.Campaign.t_completed = t.Campaign.t_consistent + t.Campaign.t_mismatches
                 then []
                 else [ label ^ ": verdict tallies do not sum to the trials" ])
              @ (if cr.Campaign.cr_cell.Campaign.cl_runtime = name && cr.Campaign.cr_golden = golden then []
                 else [ label ^ ": golden run differs from set-up" ])
            in
            fail_op c ~weight:plan.Campaign.p_trials msgs;
            (* Traced passes re-run every trial through the injector
               (same per-trial seeds and watchdogs as the campaign) plus
               one layer-by-layer build and a golden run; the tallies
               must equal the campaign's. *)
            if traced then begin
              ignore (build_probe ~op:label config (bench.Workloads.Bench_def.source config.Tc.seed));
              let t0 = now () in
              ignore (span ~op:label "faultinject.golden" (fun () -> Oracle.golden ~fuel:plan.Campaign.p_fuel config));
              serial := !serial +. (now () -. t0);
              let watchdog_cycles = max 2_000_000 (golden.Oracle.g_cycles * plan.Campaign.p_watchdog_scale) in
              let consistent = ref 0 and cell_reboots = ref 0 in
              for trial = 0 to plan.Campaign.p_trials - 1 do
                let seed = Campaign.trial_seed ~seed:plan.Campaign.p_seed ~cell:0 ~trial in
                let schedule = Campaign.schedule_for Campaign.Uniform golden seed in
                let t0 = now () in
                let r =
                  span ~op:label "faultinject.trial" (fun () ->
                      Injector.run_against ~max_reboots:plan.Campaign.p_max_reboots ~watchdog_cycles
                        ~fuel:plan.Campaign.p_fuel ~golden config schedule)
                in
                serial := !serial +. (now () -. t0);
                incr serial_trials;
                reboots := !reboots + r.Injector.r_reboots;
                cell_reboots := !cell_reboots + r.Injector.r_reboots;
                instr := !instr + r.Injector.r_instructions;
                cycles := !cycles + r.Injector.r_cycles;
                match r.Injector.r_verdict with
                | Injector.Pass -> incr consistent
                | Injector.Livelock _ -> incr livelocks
                | _ -> ()
              done;
              if t.Campaign.t_consistent <> !consistent || t.Campaign.t_reboots <> !cell_reboots then
                fail_op c ~weight:t.Campaign.t_trials [ label ^ ": serial trials disagree with the campaign" ]
            end)
      cells;
    let digest = digest_hex (Json.to_string (Json.List (List.rev !reports))) in
    fail_op c ~weight:!trials (check_digest ctx ~key:"campaign" digest);
    let n = float_of_int (max 1 !serial_trials) in
    {
      op_walls = List.rev !walls;
      ops = !trials;
      failed = min !trials c.c_failed;
      failures = c.c_notes;
      work_done = [ ("trials", float_of_int !trials) ];
      probes =
        (if not traced then []
         else
           [
             ("serial_kernel_s", !serial);
             ("faultinject.reboots_per_trial", float_of_int !reboots /. n);
             ("faultinject.livelock_ratio", float_of_int !livelocks /. n);
             ("msp430.sim_instructions", float_of_int !instr);
             ("msp430.sim_cycles", float_of_int !cycles);
           ]);
      digest = Some digest;
    }
  in
  { run; cleanup = ignore }

(* --- Metrics ---------------------------------------------------------- *)

let layers =
  [ "minic"; "swapram"; "blockcache"; "masm"; "toolchain"; "msp430"; "trace_file"; "engine"; "dse";
    "parallel"; "faultinject" ]

(* Per-layer values of one traced pass, from its spans and probes. *)
let layer_metrics ~pass_spans ~(p : pass) =
  let durs name = List.filter_map (fun s -> if s.Spans.name = name then Some (Spans.dur s) else None) pass_spans in
  let total name = sum (durs name) in
  let probe k = Option.value (List.assoc_opt k p.probes) ~default:0.0 in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace child_time s.Spans.parent
        (Spans.dur s +. Option.value (Hashtbl.find_opt child_time s.Spans.parent) ~default:0.0))
    pass_spans;
  let self s = Spans.dur s -. Option.value (Hashtbl.find_opt child_time s.Spans.id) ~default:0.0 in
  let root = List.find (fun s -> s.Spans.name = "perfbench.pass") pass_spans in
  let self_by_layer l =
    sum (List.filter_map (fun s -> if s != root && layer_of s.Spans.name = l then Some (self s) else None) pass_spans)
  in
  let superblock_s = total "msp430.superblock" in
  let trials = durs "faultinject.trial" in
  let parallel_wall = total "parallel.dse_run" +. total "parallel.campaign_run" in
  [
    ("minic.compile_ms", total "minic.compile" *. 1e3);
    ("swapram.build_ms", total "swapram.build" *. 1e3);
    ("blockcache.build_ms", total "blockcache.build" *. 1e3);
    ("masm.assemble_ms", total "masm.assemble" *. 1e3);
    ("toolchain.prepare_ms", total "toolchain.prepare" *. 1e3);
    ("toolchain.collect_ms", total "toolchain.collect" *. 1e3);
    ("msp430.superblock_s", superblock_s);
    ("msp430.superblock_minstr_per_s", ratio (probe "msp430.sim_instructions") superblock_s /. 1e6);
    ("msp430.sim_instructions", probe "msp430.sim_instructions");
    ("msp430.sim_cycles", probe "msp430.sim_cycles");
    ("trace_file.record_s", total "trace_file.record");
    ("trace_file.record_overhead_s",
      if durs "trace_file.record" = [] then 0.0 else total "trace_file.record" -. total "toolchain.reference_run");
    ("trace_file.decode_mevents_per_s", ratio (probe "decoded_events") (total "trace_file.decode") /. 1e6);
    ("engine.load_s", total "engine.load");
    ("engine.exact_us", total "engine.exact" *. 1e6);
    ("engine.lru_kernel_s", total "engine.lru_kernel");
    ("engine.heap_lfu_s", total "engine.heap_lfu");
    ("engine.heap_cost_s", total "engine.heap_cost");
    ("engine.sims_collapsed_ratio", probe "engine.sims_collapsed_ratio");
    ("dse.pareto_ms", total "dse.pareto" *. 1e3);
    ("dse.frontier_points", probe "dse.frontier_points");
    ("parallel.efficiency", ratio (probe "serial_kernel_s") (float_of_int jobs *. parallel_wall));
    ("faultinject.golden_ms", total "faultinject.golden" *. 1e3);
    ("faultinject.trial_ms_p50", percentile 0.5 trials *. 1e3);
    ("faultinject.trial_ms_p90", percentile 0.9 trials *. 1e3);
    ("faultinject.reboots_per_trial", probe "faultinject.reboots_per_trial");
    ("faultinject.livelock_ratio", probe "faultinject.livelock_ratio");
  ]
  @ List.map (fun l -> (l ^ ".self_s", self_by_layer l)) layers
  @ [ ("trace.unattributed_share", ratio (self root) (Spans.dur root)) ]

(* End-to-end values of the untraced passes. [wall_s] sums each
   operation's median speed-adjusted time over the passes, so a burst
   of host contention in one pass moves it less than a median of pass
   totals would; [ops_per_s] divides a pass's operations by it. The
   workload-specific rates divide a pass's median work by the raw
   wall time. *)
let e2e_metrics ~(setup_times : timing list) ~(untraced : pass list) =
  let sum_medians field =
    List.fold_left
      (fun acc (op, _) -> acc +. median (List.map (fun p -> field (List.assoc op p.op_walls)) untraced))
      0.0 (List.hd untraced).op_walls
  in
  let wall = sum_medians (fun t -> t.adjusted) and raw_wall = sum_medians (fun t -> t.raw) in
  let work k = median (List.map (fun p -> Option.value (List.assoc_opt k p.work_done) ~default:0.0) untraced) in
  let ops = List.fold_left (fun a p -> a + p.ops) 0 untraced in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 untraced in
  let per_pass_ops = median (List.map (fun p -> float_of_int p.ops) untraced) in
  [
    ("setup_s", median (List.map (fun t -> t.adjusted) setup_times));
    ("wall_s", wall);
    ("ops_per_s", ratio per_pass_ops wall);
    ("raw_setup_s", median (List.map (fun t -> t.raw) setup_times));
    ("raw_wall_s", raw_wall);
    ("op_fail_ratio", ratio (float_of_int failed) (float_of_int ops));
    ("sim_minstr_per_s", ratio (work "instructions") raw_wall /. 1e6);
    ("record_mevents_per_s", ratio (work "events") raw_wall /. 1e6);
    ("trace_bytes_per_event", ratio (work "trace_bytes") (work "events"));
    ("dse_points_per_s", ratio (work "points") raw_wall);
    ("campaign_trials_per_s", ratio (work "trials") raw_wall);
  ]

(* --- Main ------------------------------------------------------------- *)

let workloads = [ ("exec-suite", exec_setup); ("record-load", record_setup); ("dse-grid", dse_setup); ("campaign", campaign_setup) ]

let usage =
  "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setups K] [--passes N] [--tiny] \
   [--perturb CHECK] [--expected FILE] [--work DIR] [--spans FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let setups = ref 3 and min_passes = ref 3 and tiny = ref false and perturb = ref "" in
  let expected = ref "" and work = ref ".perfbench" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "start passes while they fit in this many seconds (default 15)");
      ("--trace", Arg.Set_int trace, "1: alternate untraced and traced passes");
      ("--setups", Arg.Set_int setups, "set-ups to time (default 3)");
      ("--passes", Arg.Set_int min_passes, "minimum untraced passes (default 3)");
      ("--tiny", Arg.Set tiny, "self-test size");
      ("--perturb", Arg.Set_string perturb, "perturb one expected value (self-test)");
      ("--expected", Arg.Set_string expected, "committed digests (JSON)");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--spans", Arg.Set_string spans_out, "write traced spans here (Chrome trace JSON)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup_fn =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let expected =
    if !expected = "" || not (Sys.file_exists !expected) then None
    else
      let ic = open_in_bin !expected in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse s with
      | Error e -> failwith (!expected ^ ": " ^ e)
      | Ok j ->
          Option.bind
            (Option.bind (Json.member (if !tiny then "tiny" else "full") j) (Json.member !workload))
            (Json.member (string_of_int !seed))
  in
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  (* The first probe of a process runs cold; warm it once. *)
  ignore (probe ());
  let ctx = { seed = !seed; tiny = !tiny; perturb = !perturb; work = !work; expected } in
  (* Set up [setups] times from scratch; keep the last instance. *)
  let setup_times = ref [] and inst = ref None in
  for _ = 1 to max 1 !setups do
    Option.iter (fun i -> i.cleanup ()) !inst;
    Gc.compact ();
    last_probe := None;
    let i, t = timed (fun () -> setup_fn ctx) in
    setup_times := t :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let passes = ref [] in
  let t_start = now () in
  let traced_passes () = List.filter (fun (traced, _, _, _) -> traced) !passes in
  let untraced_passes () = List.filter (fun (traced, _, _, _) -> not traced) !passes in
  (* At least [min_passes] untraced passes (one of each kind when
     tracing); after that, start another pass only if the last one's
     length still fits in [--seconds]. *)
  let min_untraced = if !trace = 1 then 1 else !min_passes in
  let last = ref 0.0 in
  while
    List.length (untraced_passes ()) < min_untraced
    || (!trace = 1 && traced_passes () = [])
    || now () -. t_start +. !last <= !seconds
  do
    let traced = !trace = 1 && List.length (untraced_passes ()) > List.length (traced_passes ()) in
    Gc.compact ();
    last_probe := None;
    Spans.on := traced;
    let first = !Spans.next in
    let t0 = now () in
    let p = span "perfbench.pass" (fun () -> inst.run ~traced) in
    let total = now () -. t0 in
    last := total;
    Spans.on := false;
    let pass_spans = List.filter (fun s -> s.Spans.id >= first) !Spans.recorded in
    passes := (traced, p, pass_spans, total) :: !passes
  done;
  inst.cleanup ();
  let passes = List.rev !passes in
  let untraced = List.filter_map (fun (t, p, _, _) -> if t then None else Some p) passes in
  let traced = List.filter_map (fun (t, p, s, _) -> if t then Some (p, s) else None) passes in
  let all = List.map (fun (_, p, _, _) -> p) passes in
  let totals traced = List.filter_map (fun (t, _, _, total) -> if t = traced then Some total else None) passes in
  let e2e = e2e_metrics ~setup_times:!setup_times ~untraced in
  let per_layer =
    if traced = [] then []
    else
      let per_pass = List.map (fun (p, pass_spans) -> layer_metrics ~pass_spans ~p) traced in
      List.map (fun (k, _) -> (k, median (List.map (List.assoc k) per_pass))) (List.hd per_pass)
      @ [ ("trace_overhead_s", median (totals true) -. median (totals false)) ]
  in
  if !spans_out <> "" && traced <> [] then begin
    let oc = open_out_bin !spans_out in
    output_string oc (to_string (Spans.chrome !Spans.recorded));
    close_out oc
  end;
  let attempted = List.fold_left (fun a p -> a + p.ops) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let failures = List.concat_map (fun p -> List.rev p.failures) all in
  let digests = List.sort_uniq compare (List.filter_map (fun p -> p.digest) all) in
  print_endline
    (to_string
       (O
          [
            ("workload", S !workload);
            ("seed", I !seed);
            ("tiny", B !tiny);
            ("jobs", I jobs);
            ("nproc", I (Experiments.Parallel.ncores ()));
            ("ocaml", S Sys.ocaml_version);
            ("attempted", I attempted);
            ("failed", I failed);
            ("failures", L (List.map (fun s -> S s) (List.filteri (fun i _ -> i < 20) failures)));
            ("digests", L (List.map (fun s -> S s) digests));
            ("digest_committed", B (expected <> None));
            ("setup_s", L (List.map (fun t -> N t.raw) (List.rev !setup_times)));
            ( "passes",
              L
                (List.map
                   (fun (t, p, _, total) ->
                     O
                       [
                         ("traced", B t);
                         ("wall_s", N (pass_wall p));
                         ("total_s", N total);
                         ("op_walls", O (List.map (fun (k, t) -> (k, L [ N t.raw; N t.adjusted ])) p.op_walls));
                         ("ops", I p.ops);
                         ("failed", I p.failed);
                       ])
                   passes) );
            ("end_to_end", O (List.map (fun (k, v) -> (k, N v)) e2e));
            ("per_layer", O (List.map (fun (k, v) -> (k, N v)) per_layer));
          ]))
