(* Replay kernel. [load] reduces a trace file to sufficient statistics
   in one pass; [exact] / [simulate] are then pure arithmetic
   over those statistics, which is where the record-once /
   simulate-many speedup comes from. The full-stream [replay_metrics]
   path re-runs the Observe.Metrics sampler over the decoded events,
   answering its runtime hooks from the recorded enrichments. *)

module Trace = Msp430.Trace
module Energy = Msp430.Energy
module Platform = Msp430.Platform

type error = Format_error of Trace_file.error | Model_error of string

let error_message = function
  | Format_error e -> Trace_file.error_message e
  | Model_error msg -> msg

type runtime_counts = {
  rc_misses : int;
  rc_evictions : int;
  rc_aborts : int;
  rc_frozen : int;
  rc_too_large : int;
  rc_prefetches : int;
  rc_returns : int;
  rc_flushes : int;
  rc_block_loads : int;
}

type loaded = {
  header : Trace_file.header;
  path : string;
  events : int;
  bytes : int;
  instructions : int;
  by_source : int array;
  unstalled : int;
  recorded_stall : int;
  fram_ifetch : int;
  fram_data_reads : int;
  fram_read_hits : int;
  fram_writes : int;
  sram_ifetch : int;
  sram_data_reads : int;
  sram_writes : int;
  periph_accesses : int;
  calls : int;
  returns : int;
  contention_events : int;
  runtime : runtime_counts;
  refs : refs;
  units : int;
}

and refs = Fn_refs of int array | Line_refs of int array

(* --- Growable int vector ----------------------------------------------- *)

type vec = { mutable a : int array; mutable n : int }

let vec_create () = { a = Array.make 1024 0; n = 0 }

let vec_push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let vec_contents v = Array.sub v.a 0 v.n

(* --- Load -------------------------------------------------------------- *)

type accum = {
  mutable ac_instructions : int;
  ac_by_source : int array;
  mutable ac_unstalled : int;
  mutable ac_stall : int;
  mutable ac_fram_ifetch : int;
  mutable ac_fram_data_reads : int;
  mutable ac_fram_read_hits : int;
  mutable ac_fram_writes : int;
  mutable ac_sram_ifetch : int;
  mutable ac_sram_data_reads : int;
  mutable ac_sram_writes : int;
  mutable ac_periph : int;
  mutable ac_calls : int;
  mutable ac_returns : int;
  mutable ac_contention : int;
  mutable ac_fram_this_instr : int;
  mutable ac_miss_enters : int;
  mutable ac_exits_cached : int;
  mutable ac_exits_nvm : int;
  mutable ac_exits_frozen : int;
  mutable ac_exits_too_large : int;
  mutable ac_exits_return : int;
  mutable ac_evictions : int;
  mutable ac_prefetches : int;
  mutable ac_flushes : int;
  mutable ac_block_loads : int;
  ac_functions : bool;
  ac_refs : vec;
  (* Line-granularity recordings bucket each fetch home to its line
     index ([home / ac_line_size]) before RLE: cached fetches repeat
     the block's aligned NVM base and uncached fetches walk word by
     word, but both collapse once bucketed. *)
  ac_line_size : int;
  (* Pending line run (RLE): line index of the run being accumulated
     and how many consecutive fetches hit it; flushed into [ac_refs]
     as a [line; length] pair when the line changes (and at EOF). *)
  mutable ac_line_home : int;
  mutable ac_line_len : int;
  (* Highest unit id pushed into [ac_refs]; lets [simulate] size its
     direct-indexed residency arrays without a pre-pass per cell. *)
  mutable ac_max_unit : int;
}

let fresh_accum functions line_size =
  {
    ac_instructions = 0;
    ac_by_source = Array.make Trace.source_count 0;
    ac_unstalled = 0;
    ac_stall = 0;
    ac_fram_ifetch = 0;
    ac_fram_data_reads = 0;
    ac_fram_read_hits = 0;
    ac_fram_writes = 0;
    ac_sram_ifetch = 0;
    ac_sram_data_reads = 0;
    ac_sram_writes = 0;
    ac_periph = 0;
    ac_calls = 0;
    ac_returns = 0;
    ac_contention = 0;
    ac_fram_this_instr = 0;
    ac_miss_enters = 0;
    ac_exits_cached = 0;
    ac_exits_nvm = 0;
    ac_exits_frozen = 0;
    ac_exits_too_large = 0;
    ac_exits_return = 0;
    ac_evictions = 0;
    ac_prefetches = 0;
    ac_flushes = 0;
    ac_block_loads = 0;
    ac_functions = functions;
    ac_refs = vec_create ();
    ac_line_size = line_size;
    ac_line_home = min_int;
    ac_line_len = 0;
    ac_max_unit = -1;
  }

let push_line a home =
  let line = home / a.ac_line_size in
  if line = a.ac_line_home then a.ac_line_len <- a.ac_line_len + 1
  else begin
    if a.ac_line_len > 0 then begin
      vec_push a.ac_refs a.ac_line_home;
      vec_push a.ac_refs a.ac_line_len
    end;
    a.ac_line_home <- line;
    a.ac_line_len <- 1;
    if line > a.ac_max_unit then a.ac_max_unit <- line
  end

let flush_line a =
  if a.ac_line_len > 0 then begin
    vec_push a.ac_refs a.ac_line_home;
    vec_push a.ac_refs a.ac_line_len;
    a.ac_line_len <- 0;
    a.ac_line_home <- min_int
  end

(* Mirror of Memory's contention model: every [Instr] resets the
   per-instruction FRAM access count ([begin_instruction] is always
   paired with an Instr emission on observed runs), and every FRAM
   access past the first within one instruction costs one
   contention-penalty stall. *)
let note_fram_access a =
  a.ac_fram_this_instr <- a.ac_fram_this_instr + 1;
  if a.ac_fram_this_instr > 1 then a.ac_contention <- a.ac_contention + 1

(* The accumulating visitor is the allocation-free hot loop: every
   callback is straight counter arithmetic (plus a ref push), which is
   what makes loading a multi-hundred-megacycle trace cheaper than
   re-simulating it. *)
let accum_visitor a =
  {
    Trace_file.v_instr =
      (fun i _pc ->
        a.ac_instructions <- a.ac_instructions + 1;
        a.ac_by_source.(i) <- a.ac_by_source.(i) + 1;
        a.ac_fram_this_instr <- 0);
    v_cycles =
      (fun unstalled stall ->
        a.ac_unstalled <- a.ac_unstalled + unstalled;
        a.ac_stall <- a.ac_stall + stall);
    v_fram_read =
      (fun hit _addr ->
        a.ac_fram_data_reads <- a.ac_fram_data_reads + 1;
        if hit then a.ac_fram_read_hits <- a.ac_fram_read_hits + 1;
        note_fram_access a);
    v_fram_ifetch =
      (fun hit _addr home ->
        a.ac_fram_ifetch <- a.ac_fram_ifetch + 1;
        if hit then a.ac_fram_read_hits <- a.ac_fram_read_hits + 1;
        note_fram_access a;
        if not a.ac_functions then push_line a home);
    v_fram_write =
      (fun _addr ->
        a.ac_fram_writes <- a.ac_fram_writes + 1;
        note_fram_access a);
    v_sram_read = (fun _addr -> a.ac_sram_data_reads <- a.ac_sram_data_reads + 1);
    v_sram_ifetch =
      (fun _addr home ->
        a.ac_sram_ifetch <- a.ac_sram_ifetch + 1;
        if not a.ac_functions then push_line a home);
    v_sram_write = (fun _addr -> a.ac_sram_writes <- a.ac_sram_writes + 1);
    v_periph = (fun _addr -> a.ac_periph <- a.ac_periph + 1);
    v_call =
      (fun _target u ->
        a.ac_calls <- a.ac_calls + 1;
        if a.ac_functions && u >= 0 then begin
          vec_push a.ac_refs (u lsl 1);
          if u > a.ac_max_unit then a.ac_max_unit <- u
        end);
    v_return = (fun () -> a.ac_returns <- a.ac_returns + 1);
    v_miss_enter = (fun _rt -> a.ac_miss_enters <- a.ac_miss_enters + 1);
    v_miss_exit =
      (fun _rt disposition fid ->
        (match disposition with
        | "cached" -> a.ac_exits_cached <- a.ac_exits_cached + 1
        | "nvm" -> a.ac_exits_nvm <- a.ac_exits_nvm + 1
        | "frozen" -> a.ac_exits_frozen <- a.ac_exits_frozen + 1
        | "too-large" -> a.ac_exits_too_large <- a.ac_exits_too_large + 1
        | "return" -> a.ac_exits_return <- a.ac_exits_return + 1
        | _ -> ());
        if a.ac_functions && fid >= 0 && disposition <> "return" then begin
          vec_push a.ac_refs ((fid lsl 1) lor 1);
          if fid > a.ac_max_unit then a.ac_max_unit <- fid
        end);
    v_eviction = (fun _fid -> a.ac_evictions <- a.ac_evictions + 1);
    v_freeze = (fun _on -> ());
    v_cache_flush = (fun () -> a.ac_flushes <- a.ac_flushes + 1);
    v_block_load = (fun _nvm -> a.ac_block_loads <- a.ac_block_loads + 1);
    v_prefetch = (fun _fid -> a.ac_prefetches <- a.ac_prefetches + 1);
    v_phase = (fun _name -> ());
  }

let fram_read_misses l = l.fram_ifetch + l.fram_data_reads - l.fram_read_hits

let stall_at l ~wait_states =
  (wait_states * (fram_read_misses l + l.fram_writes))
  + (l.header.Trace_file.contention_penalty * l.contention_events)

(* Process-local loaded-trace cache. Keyed by path but *validated* by
   content: an entry is served only while the file's size, mtime and
   header fingerprint all still match what was loaded, so overwriting
   a trace in place (the staleness regression) can never satisfy a
   cached entry recorded under a different configuration. Forked
   workers inherit the parent's cache at fork time and fill their own
   copy lazily, which is what makes chunked sweeps decode each trace
   once per process instead of once per task. *)

type cache_sig = { cs_size : int; cs_mtime : float; cs_fingerprint : int }

let load_cache : (string, cache_sig * loaded) Hashtbl.t = Hashtbl.create 8
let load_cache_limit = 64

let clear_load_cache () = Hashtbl.reset load_cache

let load path =
  let accum = ref None in
  let make (h : Trace_file.header) =
    let a =
      match h.Trace_file.granularity with
      | Trace_file.Functions _ -> fresh_accum true 1
      | Trace_file.Lines n -> fresh_accum false (max 1 n)
    in
    accum := Some a;
    accum_visitor a
  in
  match Trace_file.iter path ~make with
  | Error e -> Error (Format_error e)
  | Ok (header, events) ->
      let a = match !accum with Some a -> a | None -> assert false in
      flush_line a;
      let bytes =
        match (Unix.stat path).Unix.st_size with
        | n -> n
        | exception Unix.Unix_error _ -> 0
      in
      let runtime =
        {
          (* SwapRAM counts every handler entry as a miss; the block
             cache enters its handler for return traps too, so its
             miss count is the "cached" exits. *)
          rc_misses =
            (match header.Trace_file.granularity with
            | Trace_file.Functions _ -> a.ac_miss_enters
            | Trace_file.Lines _ -> a.ac_exits_cached);
          rc_evictions = a.ac_evictions;
          rc_aborts = a.ac_exits_nvm;
          rc_frozen = a.ac_exits_frozen;
          rc_too_large = a.ac_exits_too_large;
          rc_prefetches = a.ac_prefetches;
          rc_returns = a.ac_exits_return;
          rc_flushes = a.ac_flushes;
          rc_block_loads = a.ac_block_loads;
        }
      in
      let l =
        {
          header;
          path;
          events;
          bytes;
          instructions = a.ac_instructions;
          by_source = a.ac_by_source;
          unstalled = a.ac_unstalled;
          recorded_stall = a.ac_stall;
          fram_ifetch = a.ac_fram_ifetch;
          fram_data_reads = a.ac_fram_data_reads;
          fram_read_hits = a.ac_fram_read_hits;
          fram_writes = a.ac_fram_writes;
          sram_ifetch = a.ac_sram_ifetch;
          sram_data_reads = a.ac_sram_data_reads;
          sram_writes = a.ac_sram_writes;
          periph_accesses = a.ac_periph;
          calls = a.ac_calls;
          returns = a.ac_returns;
          contention_events = a.ac_contention;
          runtime;
          refs =
            (if a.ac_functions then Fn_refs (vec_contents a.ac_refs)
             else Line_refs (vec_contents a.ac_refs));
          units = a.ac_max_unit + 1;
        }
      in
      (* The whole exactness story rests on the stall total being a
         function of (wait states, FRAM miss/write counts, contention
         events); refuse a trace where it is not. *)
      let reconstructed =
        stall_at l ~wait_states:header.Trace_file.wait_states
      in
      if reconstructed <> l.recorded_stall then
        Error
          (Model_error
             (Printf.sprintf
                "stall reconstruction mismatch: recorded %d, reconstructed %d \
                 at %d wait states"
                l.recorded_stall reconstructed
                header.Trace_file.wait_states))
      else Ok l

let load_cached path =
  let signature () =
    match Unix.stat path with
    | st -> Some (st.Unix.st_size, st.Unix.st_mtime)
    | exception Unix.Unix_error _ -> None
  in
  match Trace_file.read_header path with
  | Error e -> Error (Format_error e)
  | Ok h -> (
      let fp = h.Trace_file.fingerprint in
      let sg = signature () in
      match (Hashtbl.find_opt load_cache path, sg) with
      | Some (c, l), Some (size, mtime)
        when c.cs_size = size && c.cs_mtime = mtime && c.cs_fingerprint = fp ->
          Ok l
      | _ -> (
          match load path with
          | Error _ as e -> e
          | Ok l ->
              (match sg with
              | Some (size, mtime) ->
                  if Hashtbl.length load_cache >= load_cache_limit then
                    Hashtbl.reset load_cache;
                  Hashtbl.replace load_cache path
                    ( { cs_size = size; cs_mtime = mtime; cs_fingerprint = fp },
                      l )
              | None -> ());
              Ok l))

let unit_bytes l u =
  match l.header.Trace_file.granularity with
  | Trace_file.Functions sizes ->
      if u >= 0 && u < Array.length sizes then sizes.(u) else 0
  | Trace_file.Lines n -> n

let line_bytes l =
  match l.header.Trace_file.granularity with
  | Trace_file.Lines n -> n
  | Trace_file.Functions _ -> 64

(* Iterate maximal same-unit runs: [f unit bytes len]. Function refs
   are single-access runs; line refs arrive RLE-packed from [load] as
   recorded-granularity line indices, so a requested block size is
   honoured at the nearest multiple of the recorded line size (indices
   cannot be split below the granularity they were bucketed at). *)
let iter_runs l ~block f =
  match l.refs with
  | Fn_refs a ->
      Array.iter (fun x -> f (x lsr 1) (unit_bytes l (x lsr 1)) 1) a
  | Line_refs a ->
      let slot = line_bytes l in
      let factor = max 1 (block / slot) in
      let bytes = factor * slot in
      let n = Array.length a in
      let i = ref 0 in
      while !i < n do
        f (a.(!i) / factor) bytes a.(!i + 1);
        i := !i + 2
      done

let footprint l =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  iter_runs l ~block:(line_bytes l) (fun u bytes _len ->
      if not (Hashtbl.mem seen u) then begin
        Hashtbl.add seen u ();
        total := !total + bytes
      end);
  !total

(* --- Exact replay ------------------------------------------------------ *)

type totals = {
  t_frequency_mhz : int;
  t_wait_states : int;
  t_unstalled : int;
  t_stall : int;
  t_cycles : int;
  t_fram_read_misses : int;
  t_energy_nj : float;
  t_time_s : float;
}

let exact ?frequency_mhz l =
  let mhz =
    match frequency_mhz with
    | Some m -> m
    | None -> l.header.Trace_file.frequency_mhz
  in
  match mhz with
  | (8 | 24) as mhz ->
      let wait_states = if mhz = 8 then 0 else 3 in
      let params = if mhz = 8 then Energy.point_8mhz else Energy.point_24mhz in
      let stall = stall_at l ~wait_states in
      let cycles = l.unstalled + stall in
      let report =
        Energy.evaluate_counts params ~cycles
          ~fram_read_misses:(fram_read_misses l)
          ~fram_read_hits:l.fram_read_hits ~fram_writes:l.fram_writes
          ~sram_accesses:(l.sram_ifetch + l.sram_data_reads + l.sram_writes)
      in
      Ok
        {
          t_frequency_mhz = mhz;
          t_wait_states = wait_states;
          t_unstalled = l.unstalled;
          t_stall = stall;
          t_cycles = cycles;
          t_fram_read_misses = fram_read_misses l;
          t_energy_nj = report.Energy.energy_nj;
          t_time_s = report.Energy.time_s;
        }
  | m -> Error (Printf.sprintf "unsupported frequency %d MHz (8 or 24)" m)

(* --- Cache-model simulation -------------------------------------------- *)

type policy = Lru | Lfu | Cost_aware

let policy_name = function
  | Lru -> "lru"
  | Lfu -> "lfu"
  | Cost_aware -> "cost"

let policy_of_string = function
  | "lru" -> Some Lru
  | "lfu" -> Some Lfu
  | "cost" | "cost-aware" | "cost_aware" -> Some Cost_aware
  | _ -> None

type model = { m_budget : int; m_policy : policy; m_block : int option }

type sim = {
  s_refs : int;
  s_misses : int;
  s_cold_misses : int;
  s_evictions : int;
  s_bytes_loaded : int;
  s_miss_rate : float;
}

let effective_block l block =
  match (l.refs, block) with
  | Line_refs _, Some b when b > 0 -> b
  | _ -> line_bytes l

let sim_block l m = effective_block l m.m_block

let empty_sim =
  {
    s_refs = 0;
    s_misses = 0;
    s_cold_misses = 0;
    s_evictions = 0;
    s_bytes_loaded = 0;
    s_miss_rate = 0.0;
  }

(* Unit ids are small dense ints (line indices of a 64 KiB address
   space, or function ids), so residency state lives in flat arrays
   indexed by unit — no hashing on the per-run hot path, which is
   what keeps an eviction-heavy cell (LFU under thrash) cheap. The
   index bound comes from [l.units]; a block-size override only
   merges recorded units, so dividing the bound by the merge factor
   still covers every rebucketed id. *)
let sim_units l ~block =
  match l.refs with
  | Fn_refs _ -> l.units
  | Line_refs _ ->
      if l.units = 0 then 0
      else
        let factor = max 1 (block / line_bytes l) in
        ((l.units - 1) / factor) + 1

(* Residency state for a unit-id bound; allocated once per
   (trace, block) group in [simulate_many] and reset between models,
   so a batch pays the allocation and GC cost once instead of once per
   cell. [st_touched] records each unit the pass marked seen (every
   other per-unit write implies seen), so the reset clears only those
   entries — proportional to the trace's distinct units, not the
   unit-id bound, which matters on a small trace swept under many
   models. The [hp_*] arrays back the lazy min-heap used for victim
   selection: at most one entry per resident unit, so capacity [n]
   can never overflow. *)
type sim_state = {
  st_size : int array;
  st_last : int array;
  st_uses : int array;
  st_resident : bool array;
  st_seen : bool array;
  st_touched : int array;
  mutable st_ntouched : int;
  hp_key : int array;
  hp_last : int array;
  hp_unit : int array;
  mutable hp_n : int;
}

let make_state n =
  {
    st_size = Array.make n 0;
    st_last = Array.make n 0;
    st_uses = Array.make n 0;
    st_resident = Array.make n false;
    st_seen = Array.make n false;
    st_touched = Array.make n 0;
    st_ntouched = 0;
    hp_key = Array.make n 0;
    hp_last = Array.make n 0;
    hp_unit = Array.make n 0;
    hp_n = 0;
  }

let reset_state st =
  for i = 0 to st.st_ntouched - 1 do
    let u = Array.unsafe_get st.st_touched i in
    st.st_size.(u) <- 0;
    st.st_last.(u) <- 0;
    st.st_uses.(u) <- 0;
    st.st_resident.(u) <- false;
    st.st_seen.(u) <- false
  done;
  st.st_ntouched <- 0;
  st.hp_n <- 0

(* One cache-model pass over a run stream. [iter] feeds maximal
   same-unit runs as [f unit bytes len]; both [simulate] (streaming
   straight off the loaded refs) and [simulate_many] (replaying a
   pre-bucketed stream) funnel into this single implementation, so the
   batched path cannot drift from the reference one. *)
let sim_core st ~budget ~policy iter =
  let r_size = st.st_size in
  let r_last = st.st_last in
  let r_uses = st.st_uses in
  let resident = st.st_resident in
  let seen = st.st_seen in
  let hp_key = st.hp_key in
  let hp_last = st.hp_last in
  let hp_unit = st.hp_unit in
  let occupancy = ref 0 in
  let clock = ref 0 in
  let refs = ref 0 in
  let misses = ref 0 in
  let cold = ref 0 in
  let evictions = ref 0 in
  let loaded = ref 0 in
  (* Eviction order is the lexicographic (metric, last-use) minimum;
     [r_last] is unique, so the order is total and the victim matches
     what a full linear scan with the same strict-< comparison picks —
     scan order and heap shape never show. *)
  let key_of =
    match policy with
    | Lru -> fun u -> Array.unsafe_get r_last u
    | Lfu -> fun u -> Array.unsafe_get r_uses u
    | Cost_aware ->
        fun u -> Array.unsafe_get r_uses u * Array.unsafe_get r_size u
  in
  (* Lazy min-heap over (key, last, unit): entries are pushed at insert
     time and never updated on a hit, so an entry can go stale — but
     every policy metric only grows with further use, so a stale entry
     under-states its unit's current key. Popping therefore re-keys a
     stale root in place and retries; the first root whose stored key
     matches the live key is the true minimum over current keys. Each
     hit creates at most one stale entry, so the amortized cost is
     O(log resident) per reference instead of the old O(resident)
     scan per eviction. *)
  let sift_up i0 k l u =
    let i = ref i0 in
    let stop = ref false in
    while (not !stop) && !i > 0 do
      let p = (!i - 1) / 2 in
      let pk = Array.unsafe_get hp_key p in
      if pk > k || (pk = k && Array.unsafe_get hp_last p > l) then begin
        hp_key.(!i) <- pk;
        hp_last.(!i) <- Array.unsafe_get hp_last p;
        hp_unit.(!i) <- Array.unsafe_get hp_unit p;
        i := p
      end
      else stop := true
    done;
    hp_key.(!i) <- k;
    hp_last.(!i) <- l;
    hp_unit.(!i) <- u
  in
  (* Place (k, l, u) starting at the root and restore heap order. *)
  let sift_down k l u =
    let n = st.hp_n in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let c1 = (2 * !i) + 1 in
      if c1 >= n then stop := true
      else begin
        let c2 = c1 + 1 in
        let c =
          if
            c2 < n
            && (hp_key.(c2) < hp_key.(c1)
               || (hp_key.(c2) = hp_key.(c1) && hp_last.(c2) < hp_last.(c1)))
          then c2
          else c1
        in
        let ck = Array.unsafe_get hp_key c in
        if ck < k || (ck = k && Array.unsafe_get hp_last c < l) then begin
          hp_key.(!i) <- ck;
          hp_last.(!i) <- Array.unsafe_get hp_last c;
          hp_unit.(!i) <- Array.unsafe_get hp_unit c;
          i := c
        end
        else stop := true
      end
    done;
    hp_key.(!i) <- k;
    hp_last.(!i) <- l;
    hp_unit.(!i) <- u
  in
  let push k l u =
    let n = st.hp_n in
    st.hp_n <- n + 1;
    sift_up n k l u
  in
  let rec victim () =
    let u = hp_unit.(0) in
    let ck = key_of u in
    let cl = Array.unsafe_get r_last u in
    if hp_key.(0) = ck && hp_last.(0) = cl then begin
      let n = st.hp_n - 1 in
      st.hp_n <- n;
      if n > 0 then sift_down hp_key.(n) hp_last.(n) hp_unit.(n);
      u
    end
    else begin
      sift_down ck cl u;
      victim ()
    end
  in
  (* Run semantics are exact: within a same-unit run only the first
     access can miss (the unit is resident afterwards), so a hit run
     adds [len] uses and moves recency to the run's last access, and a
     miss run is one miss plus [len - 1] immediate hits — except for a
     unit larger than the whole budget, where every access of the run
     misses, exactly as the per-access loop would count. *)
  iter (fun u bytes len ->
      refs := !refs + len;
      clock := !clock + len;
      if resident.(u) then begin
        r_last.(u) <- !clock;
        r_uses.(u) <- r_uses.(u) + len
      end
      else begin
        if not seen.(u) then begin
          seen.(u) <- true;
          st.st_touched.(st.st_ntouched) <- u;
          st.st_ntouched <- st.st_ntouched + 1;
          incr cold
        end;
        if bytes <= budget then begin
          incr misses;
          while !occupancy + bytes > budget do
            let k = victim () in
            resident.(k) <- false;
            occupancy := !occupancy - r_size.(k);
            incr evictions
          done;
          resident.(u) <- true;
          r_size.(u) <- bytes;
          r_last.(u) <- !clock;
          r_uses.(u) <- len;
          occupancy := !occupancy + bytes;
          loaded := !loaded + bytes;
          push (key_of u) !clock u
        end
        else misses := !misses + len
      end);
  {
    s_refs = !refs;
    s_misses = !misses;
    s_cold_misses = !cold;
    s_evictions = !evictions;
    s_bytes_loaded = !loaded;
    s_miss_rate =
      (if !refs = 0 then 0.0 else float_of_int !misses /. float_of_int !refs);
  }

let simulate l m =
  let block = sim_block l m in
  sim_core
    (make_state (sim_units l ~block))
    ~budget:m.m_budget ~policy:m.m_policy (iter_runs l ~block)

(* Pre-bucketed run stream for a batch: [iter_runs] is walked once per
   effective block size and the resulting (unit, bytes, len) triples
   are materialized with adjacent same-unit runs merged. Merging is
   exact under the run semantics above: a resident unit re-hit simply
   extends the run (same uses, same final recency), and a non-fitting
   unit misses once per access whether the accesses arrive as one run
   or several. *)
type prepared = {
  pp_units : int array;
  pp_bytes : int array;
  pp_lens : int array;
  pp_runs : int;
}

let prepare l ~block =
  let units = vec_create () in
  let bytes = vec_create () in
  let lens = vec_create () in
  let last = ref min_int in
  iter_runs l ~block (fun u b len ->
      if u = !last then lens.a.(lens.n - 1) <- lens.a.(lens.n - 1) + len
      else begin
        last := u;
        vec_push units u;
        vec_push bytes b;
        vec_push lens len
      end);
  {
    pp_units = vec_contents units;
    pp_bytes = vec_contents bytes;
    pp_lens = vec_contents lens;
    pp_runs = units.n;
  }

let iter_prepared p f =
  for i = 0 to p.pp_runs - 1 do
    f
      (Array.unsafe_get p.pp_units i)
      (Array.unsafe_get p.pp_bytes i)
      (Array.unsafe_get p.pp_lens i)
  done

(* --- Single-pass all-budget LRU simulation ------------------------------ *)

(* Exact LRU results for every budget in [budgets] (sorted ascending,
   distinct) from O(groups) passes over the run stream instead of one
   pass per budget.

   LRU with evict-until-fit keeps the resident set equal to the
   maximal byte-fitting prefix of the recency stack *restricted to
   eligible units* (those with bytes <= budget): a hit preserves the
   prefix (the unit moves to the top), and a miss-insert evicts from
   the prefix's bottom until the new top fits, with maximality
   witnessed by the last victim. So an eligible re-access hits at
   budget B iff its byte-weighted stack distance d — bytes of eligible
   units at or above it on the stack, self included — satisfies
   d <= B, which is Mattson's inclusion property, byte-weighted.

   The wrinkle is eligibility: [sim_core] bypasses a unit larger than
   the whole budget, so the *filtered* stack differs between budgets
   separated by some unit size, and a single stack does not serve all
   budgets. Budgets are therefore partitioned into eligibility groups
   — split at every distinct unit size inside (min budget, max budget]
   — and each group gets one stack pass over its shared filtered
   stream. On real grids the distinct sizes are few (one per block
   size for line traces, per-function sizes for SwapRAM), so hundreds
   of budgets collapse to a handful of passes.

   Within a pass, per-budget tallies use difference arrays over the
   sorted budget index: a re-access at distance d misses exactly at
   budgets < d (a binary-searched index range), a first touch misses
   for the whole group, and a bypassed run misses [len] times for the
   whole group. Evictions come from conservation — every eligible miss
   inserts one unit, so evictions(B) = eligible misses(B) minus the
   units resident at the end, and the end-resident count per budget is
   one MRU-to-LRU cumulative walk with an ascending-budget pointer.
   Cold misses are budget-independent ([sim_core] counts first touches
   before the fit check).

   Exactness relies on a unit's [bytes] being constant across the
   stream, which [iter_runs] guarantees for both granularities. *)
let lru_all_budgets ~units ~budgets ~nruns iter =
  let nb = Array.length budgets in
  if nb = 0 then [||]
  else begin
    (* Pre-pass: global tallies (refs; distinct units = cold misses at
       every budget) and the distinct unit sizes that cut the budget
       axis into eligibility groups. *)
    let seen = Array.make (max units 1) false in
    let refs_total = ref 0 in
    let cold_total = ref 0 in
    let sizes_tbl = Hashtbl.create 16 in
    iter (fun u bytes len ->
        refs_total := !refs_total + len;
        if not (Array.unsafe_get seen u) then begin
          seen.(u) <- true;
          incr cold_total
        end;
        if not (Hashtbl.mem sizes_tbl bytes) then
          Hashtbl.replace sizes_tbl bytes ());
    let sizes =
      List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) sizes_tbl [])
    in
    (* Inclusive budget-index ranges sharing one eligible-unit set. *)
    let groups =
      let gs = ref [] in
      let lo = ref 0 in
      let rest = ref sizes in
      let drop_le b =
        while (match !rest with s :: _ -> s <= b | [] -> false) do
          rest := List.tl !rest
        done
      in
      drop_le budgets.(0);
      for i = 1 to nb - 1 do
        let before = !rest in
        drop_le budgets.(i);
        if !rest != before then begin
          gs := (!lo, i - 1) :: !gs;
          lo := i
        end
      done;
      List.rev ((!lo, nb - 1) :: !gs)
    in
    let elig_d = Array.make (nb + 1) 0 in
    let bypass_d = Array.make (nb + 1) 0 in
    let bytes_d = Array.make (nb + 1) 0 in
    let resident_cnt = Array.make nb 0 in
    let fen = Observe.Fenwick.create (nruns + 1) in
    let slot_of = Array.make (max units 1) (-1) in
    let slot_unit = Array.make (nruns + 2) (-1) in
    let slot_size = Array.make (nruns + 2) 0 in
    List.iter
      (fun (lo, hi) ->
        (* The group's eligibility threshold: every budget in the
           group admits exactly the units with bytes <= t. *)
        let t = budgets.(lo) in
        Observe.Fenwick.clear fen;
        Array.fill slot_of 0 (Array.length slot_of) (-1);
        let next = ref 1 in
        (* First budget index in [lo..hi] with budget >= d (hi + 1 when
           none): the miss range for a re-access at distance d. *)
        let cut d =
          if budgets.(hi) < d then hi + 1
          else begin
            let a = ref lo and b = ref hi in
            while !a < !b do
              let m = (!a + !b) / 2 in
              if budgets.(m) >= d then b := m else a := m + 1
            done;
            !a
          end
        in
        iter (fun u bytes len ->
            if bytes > t then begin
              bypass_d.(lo) <- bypass_d.(lo) + len;
              bypass_d.(hi + 1) <- bypass_d.(hi + 1) - len
            end
            else begin
              let p = Array.unsafe_get slot_of u in
              let miss_hi =
                if p < 0 then hi + 1
                else begin
                  let d = Observe.Fenwick.suffix fen p in
                  Observe.Fenwick.add fen p (-slot_size.(p));
                  cut d
                end
              in
              if miss_hi > lo then begin
                elig_d.(lo) <- elig_d.(lo) + 1;
                elig_d.(miss_hi) <- elig_d.(miss_hi) - 1;
                bytes_d.(lo) <- bytes_d.(lo) + bytes;
                bytes_d.(miss_hi) <- bytes_d.(miss_hi) - bytes
              end;
              let s = !next in
              incr next;
              Observe.Fenwick.add fen s bytes;
              slot_of.(u) <- s;
              slot_unit.(s) <- u;
              slot_size.(s) <- bytes
            end);
        (* End-of-trace residents: walking the stack MRU-to-LRU while
           advancing an ascending budget pointer finalizes each budget
           the moment the next unit no longer fits. *)
        let j = ref lo in
        let cum = ref 0 in
        let cnt = ref 0 in
        let s = ref (!next - 1) in
        while !s >= 1 && !j <= hi do
          let u = slot_unit.(!s) in
          if slot_of.(u) = !s then begin
            let sz = slot_size.(!s) in
            while !j <= hi && budgets.(!j) < !cum + sz do
              resident_cnt.(!j) <- !cnt;
              incr j
            done;
            cum := !cum + sz;
            incr cnt
          end;
          decr s
        done;
        while !j <= hi do
          resident_cnt.(!j) <- !cnt;
          incr j
        done)
      groups;
    let sims = Array.make nb empty_sim in
    let elig = ref 0 in
    let byp = ref 0 in
    let byt = ref 0 in
    for i = 0 to nb - 1 do
      elig := !elig + elig_d.(i);
      byp := !byp + bypass_d.(i);
      byt := !byt + bytes_d.(i);
      let misses = !elig + !byp in
      sims.(i) <-
        {
          s_refs = !refs_total;
          s_misses = misses;
          s_cold_misses = !cold_total;
          s_evictions = !elig - resident_cnt.(i);
          s_bytes_loaded = !byt;
          s_miss_rate =
            (if !refs_total = 0 then 0.0
             else float_of_int misses /. float_of_int !refs_total);
        }
    done;
    sims
  end

(* Run the kernel on budgets in arbitrary order (with duplicates):
   sort-unique for the kernel, then map each requested budget back to
   its slot. *)
let all_budgets_unsorted ~units ~nruns iter budgets =
  let sorted = Array.of_list (List.sort_uniq compare budgets) in
  let sims = lru_all_budgets ~units ~budgets:sorted ~nruns iter in
  let idx = Hashtbl.create (Array.length sorted) in
  Array.iteri (fun i b -> Hashtbl.replace idx b i) sorted;
  List.map (fun b -> sims.(Hashtbl.find idx b)) budgets

let simulate_all_budgets ?block l budgets =
  match budgets with
  | [] -> []
  | _ ->
      let block = effective_block l block in
      let p = prepare l ~block in
      all_budgets_unsorted ~units:(sim_units l ~block) ~nruns:p.pp_runs
        (fun f -> iter_prepared p f)
        budgets

(* Test hooks: the same kernels over a synthetic (unit, bytes, len)
   run array, so properties can compare them without recording a
   trace. *)
let iter_run_array runs f = Array.iter (fun (u, b, len) -> f u b len) runs

let simulate_runs ~units ~budget ~policy runs =
  sim_core (make_state units) ~budget ~policy (iter_run_array runs)

let simulate_runs_all_budgets ~units ~budgets runs =
  match budgets with
  | [] -> []
  | _ ->
      all_budgets_unsorted ~units ~nruns:(Array.length runs)
        (iter_run_array runs) budgets

(* Totals of the prepared stream: reference count, distinct units and
   their summed bytes (the code footprint at this block size). A
   budget >= footprint never evicts under any policy — every eligible
   unit fits forever — so each distinct unit misses exactly once and
   the whole sim has a closed form. On real grids the SRAM ladder
   extends well past small benchmarks' footprints, so this collapses
   the upper budget range of the LFU/Cost axes that the LRU stack
   kernel cannot absorb. *)
let prepared_totals ~units p =
  let seen = Array.make (max units 1) false in
  let refs = ref 0 in
  let distinct = ref 0 in
  let footprint = ref 0 in
  iter_prepared p (fun u bytes len ->
      refs := !refs + len;
      if not (Array.unsafe_get seen u) then begin
        seen.(u) <- true;
        incr distinct;
        footprint := !footprint + bytes
      end);
  (!refs, !distinct, !footprint)

let simulate_many_collapsed l models =
  match models with
  | [] -> ([], 0)
  | [ m ] -> ([ simulate l m ], 0)
  | _ ->
      (* Group models by effective block size: each group shares one
         pre-bucketed run stream, and within a group the LRU budget
         axis collapses into the all-budget stack kernel — one pass
         per eligibility class instead of one per budget. LFU and
         Cost_aware (and a lone LRU model, where the kernel's pre-pass
         would only add overhead) run the shared-state [sim_core]
         path. Results land at their input index, so group iteration
         order never shows. *)
      let arr = Array.of_list models in
      let nm = Array.length arr in
      let out = Array.make nm empty_sim in
      let groups = Hashtbl.create 4 in
      for i = nm - 1 downto 0 do
        let block = sim_block l arr.(i) in
        let cur = try Hashtbl.find groups block with Not_found -> [] in
        Hashtbl.replace groups block (i :: cur)
      done;
      let collapsed = ref 0 in
      Hashtbl.iter
        (fun block idxs ->
          let p = prepare l ~block in
          let units = sim_units l ~block in
          let lru, rest =
            List.partition (fun i -> arr.(i).m_policy = Lru) idxs
          in
          let scalar =
            match lru with
            | [] | [ _ ] -> idxs
            | _ ->
                let budgets = List.map (fun i -> arr.(i).m_budget) lru in
                let sims =
                  all_budgets_unsorted ~units ~nruns:p.pp_runs
                    (fun f -> iter_prepared p f)
                    budgets
                in
                List.iter2 (fun i sim -> out.(i) <- sim) lru sims;
                collapsed := !collapsed + List.length lru;
                rest
          in
          match scalar with
          | [] -> ()
          | [ i ] ->
              out.(i) <-
                sim_core (make_state units) ~budget:arr.(i).m_budget
                  ~policy:arr.(i).m_policy (iter_prepared p)
          | _ ->
              (* Budgets at or above the stream footprint never evict,
                 so their sims are policy-independent and closed-form:
                 each distinct unit misses exactly once. One totals
                 pass dedupes the whole beyond-footprint tail of the
                 LFU / Cost_aware budget axes. *)
              let refs_total, distinct, fp = prepared_totals ~units p in
              let beyond =
                {
                  s_refs = refs_total;
                  s_misses = distinct;
                  s_cold_misses = distinct;
                  s_evictions = 0;
                  s_bytes_loaded = fp;
                  s_miss_rate =
                    (if refs_total = 0 then 0.0
                     else float_of_int distinct /. float_of_int refs_total);
                }
              in
              let st = ref None in
              List.iter
                (fun i ->
                  if arr.(i).m_budget >= fp then out.(i) <- beyond
                  else begin
                    let st =
                      match !st with
                      | Some s ->
                          reset_state s;
                          s
                      | None ->
                          let s = make_state units in
                          st := Some s;
                          s
                    in
                    out.(i) <-
                      sim_core st ~budget:arr.(i).m_budget
                        ~policy:arr.(i).m_policy (iter_prepared p)
                  end)
                scalar)
        groups;
      (Array.to_list out, !collapsed)

let simulate_many l models = fst (simulate_many_collapsed l models)

(* --- Full metrics replay ----------------------------------------------- *)

let replay_metrics ?(window = 65536) ?(buckets = 48) path =
  let bad_frequency = ref None in
  let result =
    Trace_file.fold path
      ~init:(fun (h : Trace_file.header) ->
        let reuse, sizes =
          match h.Trace_file.granularity with
          | Trace_file.Functions sizes -> (Observe.Metrics.Functions, sizes)
          | Trace_file.Lines n -> (Observe.Metrics.Lines n, [||])
        in
        let params =
          match h.Trace_file.frequency_mhz with
          | 8 -> Energy.point_8mhz
          | 24 -> Energy.point_24mhz
          | m ->
              bad_frequency := Some m;
              Energy.point_24mhz
        in
        let cur_unit = ref None in
        let cur_home = ref 0 in
        let hooks =
          {
            Observe.Metrics.h_fid_size =
              (fun fid ->
                if fid >= 0 && fid < Array.length sizes then sizes.(fid) else 0);
            h_call_unit = (fun _ -> !cur_unit);
            h_ifetch_home = (fun _ -> !cur_home);
          }
        in
        let metrics =
          Observe.Metrics.create
            {
              Observe.Metrics.window_cycles = window;
              buckets;
              reuse;
              config_budget = h.Trace_file.budget;
            }
            ~params
            ~fram:(Platform.fram_base, Platform.fram_base + Platform.fram_size)
            ~sram:(Platform.sram_base, Platform.sram_base + Platform.sram_size)
            hooks
        in
        (metrics, cur_unit, cur_home))
      ~f:(fun ((metrics, cur_unit, cur_home) as acc) d ->
        cur_unit := d.Trace_file.d_unit;
        cur_home := d.Trace_file.d_home;
        Observe.Metrics.observer metrics d.Trace_file.d_ev;
        acc)
  in
  match result with
  | Error e -> Error (Format_error e)
  | Ok ((metrics, _, _), header, _) -> (
      match !bad_frequency with
      | Some m ->
          Error
            (Model_error
               (Printf.sprintf "unsupported recorded frequency %d MHz" m))
      | None -> Ok (metrics, header))
