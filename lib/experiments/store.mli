(** A key→value table, optionally backed by an append-only checkpoint
    file: the persistence behind [dse --resume] and [campaign --resume].

    File format, version 2: a header line [MAGIC/2 "FINGERPRINT"], then
    one line per entry — the hex MD5 digest of the payload, a space,
    and the payload: the caller's {!codec} rendering of one binding as
    compact JSON. The digest turns any damaged entry into an error
    instead of a different value. Loading:
    - a missing or empty file, or one whose header has no newline yet,
      is a fresh store;
    - a complete header with another magic or version (such as a
      version-1 Marshal store) is {!Wrong_format}, one with another
      fingerprint {!Wrong_fingerprint};
    - an unterminated last line is the torn tail of a killed run and
      is dropped;
    - a terminated line that does not decode is {!Corrupt_entry}.

    Loading never raises on file contents. A successful load rewrites
    the file compacted (by rename), so appends land on a clean tail. *)

type ('k, 'v) codec = {
  magic : string;  (** format name; the header adds the version *)
  encode : 'k -> 'v -> Observe.Json.t;
  decode : Observe.Json.t -> 'k * 'v;
      (** inverse of [encode]; may raise [Failure] or
          [Invalid_argument] on any other value *)
}

type error =
  | Wrong_format of { path : string; expected : string; found : string }
      (** [expected] is ["MAGIC/2"], [found] the header's first word *)
  | Wrong_fingerprint of { path : string }
  | Corrupt_entry of { path : string; line : int }  (** 1-based *)

val error_message : error -> string

type ('k, 'v) t

val create :
  ?fingerprint:string ->
  ?path:string ->
  ('k, 'v) codec ->
  (('k, 'v) t, error) result
(** Without [path], a plain in-memory table; with one, the loaded
    file, kept open for appends. [fingerprint] (default [""]) names
    the configuration the entries are valid for. *)

val find : ('k, 'v) t -> 'k -> 'v
(** @raise Not_found when the key is unbound. *)

val mem : ('k, 'v) t -> 'k -> bool
val length : ('k, 'v) t -> int

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind the key and, with a file, append its line (buffered until
    {!flush} or {!close}). *)

val flush : ('k, 'v) t -> unit

val close : ('k, 'v) t -> unit
(** Flush and close the file; the table stays readable. *)
