(** Fork-based worker pool for sharding independent experiment cells
    across host cores.

    Each task is computed in a forked child of the current process
    (same binary, same loaded code), so task closures and results may
    contain functional values; results travel back over a pipe via
    [Marshal] with [Closures]. The parent hands out tasks dynamically
    (one outstanding task per worker) and reassembles results in input
    order, so a parallel map is deterministic: same inputs, same
    output list, independent of worker count and scheduling.

    Simulated results are bit-identical to a serial run by
    construction — each cell is a pure function of its inputs computed
    by an isolated process. Only host-side timings differ. *)

val ncores : unit -> int
(** Number of online cores, parsed from /proc/cpuinfo; 1 when it
    cannot be determined. *)

exception Worker_failed of string
(** A task raised in its worker (carrying [Printexc.to_string] of the
    original), or a task was given up after its retry budget. *)

val in_worker : unit -> bool
(** True inside a forked worker process. Chaos tasks that deliberately
    kill their own process must check this so the serial in-process
    degradation of {!map}/{!map_robust} is never killed. *)

(** Pool lifecycle notifications, for campaign progress reporting.
    Purely observational: handlers see aggregate facts only and cannot
    influence scheduling or results. The same stream (plus per-worker
    records and queue-depth counters) is mirrored to the
    {!Observe.Telemetry} ledger when one is enabled. *)
type event =
  | Spawned of { pid : int }
  | Dispatched of { pid : int; task : int }
      (** a task was handed to a worker (serial degradation reports
          the current process's pid) *)
  | Completed of { pid : int; task : int }
      (** the worker delivered the task's result *)
  | Died of { pid : int; task : int; attempt : int }
      (** a worker crashed mid-task; the task will be re-queued *)
  | Timed_out of { pid : int; task : int }
      (** the task exceeded [task_timeout]; worker killed *)
  | Requeued of { task : int; attempt : int; delay : float }
      (** re-execution scheduled after [delay] seconds of backoff *)

val worker_progress : event -> Observe.Progress.event option
(** The [Worker_state] of the worker a pool event concerns ([task = -1]
    on [Spawned]); [None] for [Requeued], which concerns no worker. *)

val map :
  ?jobs:int -> ?on_event:(event -> unit) -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs]
    forked workers. [jobs] defaults to 1; values [<= 1], a singleton
    or empty [xs] degrade to plain [List.map] in-process (no fork).
    Tasks are dispatched dynamically in list order; results are
    returned in list order regardless of completion order. Strict: a
    worker death raises {!Worker_failed} (it is {!map_robust} with a
    zero retry budget). *)

val map_robust :
  ?jobs:int ->
  ?task_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** Self-healing {!map} for overnight campaigns: a worker that crashes
    (or exceeds the [task_timeout] host-seconds deadline, when given)
    is disposed of — both pipe ends closed, killed if needed, reaped —
    and its task is re-queued with exponential backoff ([backoff] *
    2^(attempt-1) seconds, default 0.05) against a freshly spawned
    worker, up to [retries] re-executions per task (default 3), after
    which {!Worker_failed} is raised. A task that raises an exception
    fails immediately — same binary, same input, so the failure is
    deterministic and re-running cannot help. Every worker leaving the
    pool is reaped, so no fds or zombies leak regardless of how the
    map ends. Determinism: results are assembled by task index, so a
    completed map equals the serial [List.map] regardless of crashes,
    retries or scheduling. *)

val chunk_size : ?chunk:int -> jobs:int -> int -> int
(** The chunk width {!map_chunked} will use for [n] tasks: [chunk]
    when given (clamped to [1..n]), otherwise a dynamic size aiming
    for ~4 chunks per worker, capped at 256 items so one reply frame
    stays bounded and a crashed worker forfeits bounded progress.
    Exposed so callers that build their own chunk tasks (the DSE
    engine groups cells by workload first) share the policy. *)

val map_chunked :
  ?jobs:int ->
  ?chunk:int ->
  ?task_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!map_robust} with chunked dispatch: tasks are grouped into
    contiguous chunks of {!chunk_size} items and each chunk is one
    pool task — one pipe round trip and one [Marshal] frame per chunk
    instead of per item, which is what keeps sub-millisecond cells
    (replay simulation points) from drowning in protocol overhead.
    Self-healing semantics are inherited at chunk granularity: a
    crashed worker re-queues its whole chunk, a raising task fails the
    map. [on_event] task indices refer to chunks, not items. The
    result equals [List.map f xs] for every chunk size, worker count
    and crash schedule — input-order merge is preserved by the
    index-keyed reassembly underneath. *)
