(* Fork-based worker pool. See parallel.mli for the contract.

   Design notes:

   - Workers are forked from the current process, so every task runs
     the same loaded code; closures and results marshal across the
     pipe with [Marshal.Closures] (code pointers are valid in both
     directions because parent and children are the same binary).

   - The parent keeps exactly one outstanding task per worker and
     reads a worker's entire result frame before touching another
     channel. A result frame is [output_binary_int index] followed by
     one marshalled value; since a worker only produces a frame in
     response to a task, a channel never holds more than one frame, so
     mixing [Unix.select] on the raw descriptors with buffered
     [in_channel] reads is safe.

   - Dynamic dispatch (next pending task to the first free worker)
     load-balances uneven cells; determinism is preserved by indexing
     results, not by scheduling.

   - Self-healing ([map_robust]): a worker that dies or exceeds the
     per-task host timeout is disposed of — both pipe ends closed,
     SIGKILL if still alive, waitpid so no zombie accumulates — and
     its task is re-queued with exponential backoff, up to [retries]
     re-executions, against a freshly spawned worker. A task that
     *raises* is different: the failure is deterministic (same binary,
     same input), so it surfaces as [Worker_failed] immediately. *)

let ncores () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    max 1 !n
  with Sys_error _ -> 1

exception Worker_failed of string

type event =
  | Spawned of { pid : int }
  | Dispatched of { pid : int; task : int }
  | Completed of { pid : int; task : int }
  | Died of { pid : int; task : int; attempt : int }
  | Timed_out of { pid : int; task : int }
  | Requeued of { task : int; attempt : int; delay : float }

let worker_progress ev =
  let module P = Observe.Progress in
  let state pid state task = Some (P.Worker_state { pid; state; task }) in
  match ev with
  | Spawned { pid } -> state pid P.W_spawned (-1)
  | Dispatched { pid; task } -> state pid P.W_busy task
  | Completed { pid; task } -> state pid P.W_idle task
  | Died { pid; task; _ } -> state pid P.W_died task
  | Timed_out { pid; task } -> state pid P.W_timed_out task
  | Requeued _ -> None

type 'b reply = Ok_r of 'b | Error_r of string

type worker = {
  pid : int;
  task_out : out_channel; (* parent -> child: task indices *)
  result_fd : Unix.file_descr;
  result_in : in_channel; (* child -> parent: index + marshalled reply *)
  mutable task : int; (* index in flight, -1 when idle *)
  mutable deadline : float; (* host-time deadline for the task in flight *)
}

(* True in forked workers: tasks that deliberately kill their own
   process (chaos tests) must only do so inside a real worker, never
   in the serial in-process degradation. *)
let in_worker_flag = ref false
let in_worker () = !in_worker_flag

(* Child side: serve tasks until the parent sends -1. All exits go
   through [Unix._exit] so the child never runs the parent's at_exit
   handlers or flushes duplicated buffers. *)
let child_loop tasks f task_r result_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr result_w in
  (try
     let rec serve () =
       let idx = input_binary_int ic in
       if idx >= 0 then begin
         let reply =
           try Ok_r (f tasks.(idx))
           with e -> Error_r (Printexc.to_string e)
         in
         output_binary_int oc idx;
         Marshal.to_channel oc reply [ Marshal.Closures ];
         flush oc;
         serve ()
       end
     in
     serve ()
   with _ -> Unix._exit 2);
  Unix._exit 0

let map_robust ?(jobs = 1) ?task_timeout ?(retries = 3) ?(backoff = 0.05)
    ?(on_event = fun (_ : event) -> ()) f xs =
  let tasks = Array.of_list xs in
  let ntasks = Array.length tasks in
  let nworkers = min jobs ntasks in
  Observe.Telemetry.with_span ~cat:"parallel" "map"
    ~args:
      [
        ("jobs", Observe.Json.Int (max 1 nworkers));
        ("tasks", Observe.Json.Int ntasks);
      ]
  @@ fun () ->
  if nworkers <= 1 then
    (* Serial in-process degradation: still narrate dispatch/result so
       a serial ledger carries the same task timeline (one pseudo
       worker, this process's pid) as a parallel one. *)
    let self = Unix.getpid () in
    List.mapi
      (fun i x ->
        on_event (Dispatched { pid = self; task = i });
        Observe.Telemetry.worker "dispatch" ~pid:self ~task:i;
        let v = f x in
        on_event (Completed { pid = self; task = i });
        Observe.Telemetry.worker "result" ~pid:self ~task:i;
        v)
      xs
  else begin
    (* Anything buffered now would be flushed again by every child on
       its way through [Unix._exit]-less paths; flush first so output
       appears exactly once. *)
    flush stdout;
    flush stderr;
    let prev_sigpipe =
      (* A worker that dies mid-protocol must surface to the healing
         logic, not kill the whole experiment run. *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let restore_sigpipe () =
      match prev_sigpipe with
      | Some b -> ignore (Sys.signal Sys.sigpipe b)
      | None -> ()
    in
    let results = Array.make ntasks None in
    let attempts = Array.make ntasks 0 in
    (* pending tasks as (index, not-before host time); re-queued tasks
       go to the back with their backoff expiry *)
    let pending = ref (List.init ntasks (fun i -> (i, 0.0))) in
    let done_count = ref 0 in
    let workers = ref ([] : worker list) in
    let deaths = ref 0 in
    let now () = Unix.gettimeofday () in
    (* Close both pipe ends and reap the child — the fd-hygiene core:
       every worker that leaves the pool goes through here exactly
       once, so neither a crashed worker nor a [Worker_failed] unwind
       can leak descriptors or zombies across a long campaign. *)
    let dispose ~kill w =
      (try close_out w.task_out with _ -> ());
      (try close_in w.result_in with _ -> ());
      if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
      Observe.Telemetry.worker "reap" ~pid:w.pid
        ~args:[ ("killed", Observe.Json.Bool kill) ]
    in
    let retire w =
      if w.task >= 0 then
        (* still computing a task someone else already finished (a
           timed-out task re-queued and completed elsewhere) *)
        dispose ~kill:true w
      else begin
        (try
           output_binary_int w.task_out (-1);
           flush w.task_out
         with Sys_error _ -> ());
        Observe.Telemetry.worker "exit" ~pid:w.pid;
        dispose ~kill:false w
      end
    in
    let cleanup ~kill =
      List.iter (fun w -> if kill then dispose ~kill:true w else retire w) !workers;
      workers := [];
      restore_sigpipe ()
    in
    let fail msg =
      cleanup ~kill:true;
      raise (Worker_failed msg)
    in
    let spawn () =
      flush stdout;
      flush stderr;
      let task_r, task_w = Unix.pipe ~cloexec:false () in
      let result_r, result_w = Unix.pipe ~cloexec:false () in
      match Unix.fork () with
      | 0 ->
          in_worker_flag := true;
          (* the inherited telemetry sink belongs to the parent; the
             pool narrates worker activity from the parent's vantage *)
          Observe.Telemetry.disarm ();
          Unix.close task_w;
          Unix.close result_r;
          child_loop tasks f task_r result_w
      | pid ->
          Unix.close task_r;
          Unix.close result_w;
          let w =
            {
              pid;
              task_out = Unix.out_channel_of_descr task_w;
              result_fd = result_r;
              result_in = Unix.in_channel_of_descr result_r;
              task = -1;
              deadline = infinity;
            }
          in
          workers := w :: !workers;
          on_event (Spawned { pid });
          Observe.Telemetry.worker "spawn" ~pid
            ~args:
              (if !deaths > 0 then [ ("respawn", Observe.Json.Bool true) ]
               else []);
          w
    in
    let send w idx =
      output_binary_int w.task_out idx;
      flush w.task_out;
      w.task <- idx;
      w.deadline <-
        (match task_timeout with Some s -> now () +. s | None -> infinity);
      on_event (Dispatched { pid = w.pid; task = idx });
      Observe.Telemetry.worker "dispatch" ~pid:w.pid ~task:idx;
      Observe.Telemetry.counter "queue_depth" (List.length !pending)
    in
    let drop w = workers := List.filter (fun w' -> w' != w) !workers in
    (* Put [idx] back in the queue after its worker died or timed out,
       or give up on it once [retries] re-executions are spent. *)
    let requeue ~why idx =
      if results.(idx) = None then begin
        attempts.(idx) <- attempts.(idx) + 1;
        if attempts.(idx) > retries then
          fail
            (Printf.sprintf "task %d given up after %d attempt(s): %s" idx
               attempts.(idx) why);
        let delay = backoff *. (2. ** float_of_int (attempts.(idx) - 1)) in
        on_event (Requeued { task = idx; attempt = attempts.(idx); delay });
        Observe.Telemetry.worker "requeue" ~pid:0 ~task:idx
          ~args:
            [
              ("attempt", Observe.Json.Int attempts.(idx));
              ("delay", Observe.Json.Float delay);
            ];
        pending := !pending @ [ (idx, now () +. delay) ];
        Observe.Telemetry.counter "queue_depth" (List.length !pending)
      end
    in
    let take_ready t =
      let rec go acc = function
        | [] -> None
        | (i, nb) :: rest when nb <= t ->
            pending := List.rev_append acc rest;
            Some i
        | x :: rest -> go (x :: acc) rest
      in
      go [] !pending
    in
    let next_not_before () =
      List.fold_left (fun a (_, nb) -> min a nb) infinity !pending
    in
    let rec select_retry fds timeout =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds timeout
    in
    (* Read one result frame off [w]. A truncated or unreadable frame
       means the worker died mid-protocol. *)
    let handle_frame w =
      let frame =
        try
          let idx = input_binary_int w.result_in in
          let (reply : _ reply) = Marshal.from_channel w.result_in in
          `Frame (idx, reply)
        with End_of_file | Failure _ | Sys_error _ -> `Died
      in
      match frame with
      | `Frame (idx, Ok_r v) ->
          if results.(idx) = None then begin
            results.(idx) <- Some v;
            incr done_count
          end;
          w.task <- -1;
          w.deadline <- infinity;
          on_event (Completed { pid = w.pid; task = idx });
          Observe.Telemetry.worker "result" ~pid:w.pid ~task:idx
      | `Frame (_, Error_r msg) ->
          (* the task itself raised: deterministic, re-running cannot
             help *)
          fail msg
      | `Died ->
          let idx = w.task and attempt = attempts.(w.task) + 1 in
          incr deaths;
          Observe.Telemetry.worker "died" ~pid:w.pid ~task:idx;
          drop w;
          dispose ~kill:true w;
          on_event (Died { pid = w.pid; task = idx; attempt });
          requeue ~why:"worker died without delivering a result" idx
    in
    (try
       while !done_count < ntasks do
         (* hand ready tasks to idle workers, spawning replacements up
            to the pool size *)
         let rec assign () =
           let idle = List.find_opt (fun w -> w.task < 0) !workers in
           if idle <> None || List.length !workers < nworkers then
             match take_ready (now ()) with
             | Some idx ->
                 let w = match idle with Some w -> w | None -> spawn () in
                 send w idx;
                 assign ()
             | None -> ()
         in
         assign ();
         let busy = List.filter (fun w -> w.task >= 0) !workers in
         if busy = [] then begin
           (* everything pending is backing off; sleep to the earliest
              expiry *)
           let nb = next_not_before () in
           let t = now () in
           if nb > t then ignore (Unix.select [] [] [] (min (nb -. t) 0.25))
         end
         else begin
           let fds = List.map (fun w -> w.result_fd) busy in
           let wake =
             min
               (List.fold_left (fun a w -> min a w.deadline) infinity busy)
               (next_not_before ())
           in
           let timeout =
             if wake = infinity then -1.0 else max 0.0 (wake -. now ())
           in
           let ready, _, _ = select_retry fds timeout in
           List.iter
             (fun fd ->
               match List.find_opt (fun w -> w.result_fd = fd) !workers with
               | Some w -> handle_frame w
               | None -> ())
             ready;
           (* expired deadlines: drain a frame that raced the timeout,
              otherwise kill and re-queue *)
           let t = now () in
           List.iter
             (fun w ->
               if w.task >= 0 && w.deadline <= t && List.memq w !workers then begin
                 let r, _, _ = select_retry [ w.result_fd ] 0.0 in
                 if r <> [] then handle_frame w
                 else begin
                   let idx = w.task in
                   incr deaths;
                   on_event (Timed_out { pid = w.pid; task = idx });
                   Observe.Telemetry.worker "timeout" ~pid:w.pid ~task:idx;
                   drop w;
                   dispose ~kill:true w;
                   requeue ~why:"task timed out" idx
                 end
               end)
             busy
         end
       done
     with
    | Worker_failed _ as e -> raise e (* [fail] already cleaned up *)
    | e ->
        (try cleanup ~kill:true with _ -> ());
        raise e);
    cleanup ~kill:false;
    Array.to_list results
    |> List.map (function
         | Some v -> v
         | None -> raise (Worker_failed "missing result"))
  end

(* The historical strict map: any worker death fails the whole map
   (no re-execution), exactly one attempt per task. *)
let map ?jobs ?on_event f xs = map_robust ?jobs ?on_event ~retries:0 f xs

(* --- Chunked dispatch --------------------------------------------------- *)

(* Dynamic policy: aim for ~4 chunks per worker so the pool can still
   rebalance around a slow chunk, bounded above so one reply frame
   never marshals an unbounded result list and a crashed worker never
   forfeits more than [chunk_cap] items of progress. *)
let chunk_cap = 256

let chunk_size ?chunk ~jobs n =
  match chunk with
  | Some c when c > 0 -> max 1 (min c n)
  | _ ->
      if n <= 1 then 1
      else
        let workers = max 1 jobs in
        max 1 (min chunk_cap (n / (workers * 4)))

let map_chunked ?(jobs = 1) ?chunk ?task_timeout ?retries ?backoff ?on_event f
    xs =
  let n = List.length xs in
  let c = chunk_size ?chunk ~jobs n in
  if n = 0 then []
  else if c <= 1 then
    map_robust ~jobs ?task_timeout ?retries ?backoff ?on_event f xs
  else
    let arr = Array.of_list xs in
    let nchunks = (n + c - 1) / c in
    let chunks =
      List.init nchunks (fun i ->
          let lo = i * c in
          Array.sub arr lo (min c (n - lo)))
    in
    Observe.Telemetry.with_span ~cat:"parallel" "map_chunked"
      ~args:
        [
          ("tasks", Observe.Json.Int n);
          ("chunk", Observe.Json.Int c);
          ("chunks", Observe.Json.Int nchunks);
        ]
    @@ fun () ->
    map_robust ~jobs ?task_timeout ?retries ?backoff ?on_event
      (fun chunk -> Array.map f chunk)
      chunks
    |> List.concat_map Array.to_list
