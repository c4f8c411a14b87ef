type ('k, 'v) codec = {
  magic : string;
  encode : 'k -> 'v -> Observe.Json.t;
  decode : Observe.Json.t -> 'k * 'v;
}

type error =
  | Wrong_format of { path : string; expected : string; found : string }
  | Wrong_fingerprint of { path : string }
  | Corrupt_entry of { path : string; line : int }

let error_message = function
  | Wrong_format { path; expected; found } ->
      Printf.sprintf "%s: expected a %s store, found header %S" path expected
        found
  | Wrong_fingerprint { path } ->
      Printf.sprintf "%s was written by a different configuration" path
  | Corrupt_entry { path; line } ->
      Printf.sprintf "%s:%d: corrupt entry" path line

type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  codec : ('k, 'v) codec;
  out : out_channel option;
}

let entry_line codec k v =
  let payload = Observe.Json.to_string (codec.encode k v) in
  Digest.to_hex (Digest.string payload) ^ " " ^ payload ^ "\n"

let decode_line codec line =
  let n = String.length line in
  if n < 33 || line.[32] <> ' ' then None
  else
    let payload = String.sub line 33 (n - 33) in
    if Digest.to_hex (Digest.string payload) <> String.sub line 0 32 then None
    else
      match Observe.Json.parse payload with
      | Error _ -> None
      | Ok json -> (
          try Some (codec.decode json)
          with Failure _ | Invalid_argument _ -> None)

(* The format name and version 2 of this file layout. *)
let tag codec = codec.magic ^ "/2"

(* Fill [table] from [contents]. Splitting on '\n' leaves as last
   element whatever follows the final newline: empty for a clean file,
   otherwise a torn tail — and when there is no newline at all, an
   unfinished header. Both are dropped. *)
let load codec ~fingerprint ~path table contents =
  let rec entries line = function
    | [] | [ _ ] -> Ok ()
    | l :: rest -> (
        match decode_line codec l with
        | Some (k, v) ->
            Hashtbl.replace table k v;
            entries (line + 1) rest
        | None -> Error (Corrupt_entry { path; line }))
  in
  match String.split_on_char '\n' contents with
  | [] | [ _ ] -> Ok ()
  | header :: rest ->
      if header = Printf.sprintf "%s %S" (tag codec) fingerprint then
        entries 2 rest
      else if String.starts_with ~prefix:(tag codec ^ " ") header then
        Error (Wrong_fingerprint { path })
      else
        let found = List.hd (String.split_on_char ' ' header) in
        Error (Wrong_format { path; expected = tag codec; found })

let create ?(fingerprint = "") ?path codec =
  let table = Hashtbl.create 1024 in
  match path with
  | None -> Ok { table; codec; out = None }
  | Some path -> (
      let contents =
        if Sys.file_exists path then (
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s)
        else ""
      in
      match load codec ~fingerprint ~path table contents with
      | Error _ as e -> e
      | Ok () ->
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          Printf.fprintf oc "%s %S\n" (tag codec) fingerprint;
          Hashtbl.iter
            (fun k v -> output_string oc (entry_line codec k v))
            table;
          Stdlib.flush oc;
          (* the open channel follows the file across the rename *)
          Sys.rename tmp path;
          Ok { table; codec; out = Some oc })

let find t k = Hashtbl.find t.table k
let mem t k = Hashtbl.mem t.table k
let length t = Hashtbl.length t.table

let add t k v =
  Hashtbl.replace t.table k v;
  Option.iter (fun oc -> output_string oc (entry_line t.codec k v)) t.out

let flush t = Option.iter Stdlib.flush t.out

let close t = Option.iter close_out t.out
