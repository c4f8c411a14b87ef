(* The checkpoint store behind `dse --resume` and `campaign --resume`.

   Both entry codecs round-trip any value — floats by bit pattern,
   labels and fingerprints with any character. A written store cut at
   any byte opens to the entries before the cut and accepts appends; a
   store with any single byte changed opens to a subset of what was
   written, values intact, or to a typed error — never an exception.
   Version-1 Marshal files from either caller are rejected with an
   error naming the expected version. *)

module Store = Experiments.Store
module Dse = Experiments.Dse
module Engine = Replay.Engine
module C = Faultinject.Campaign

let with_temp_file f =
  let path = Filename.temp_file "store-test-" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- generators and value equality ------------------------------------ *)

let gen_float = QCheck2.Gen.map Int64.float_of_bits QCheck2.Gen.int64

let gen_text =
  QCheck2.Gen.(
    string_size
      ~gen:(frequency [ (3, char); (1, oneofl [ ' '; '"'; '\n'; '\\' ]) ])
      (0 -- 16))

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let gen_dse_entry =
  QCheck2.Gen.(
    let+ key = tup5 int int int gen_text int
    and+ s_refs = int
    and+ s_misses = int
    and+ s_cold_misses = int
    and+ s_evictions = int
    and+ s_bytes_loaded = int
    and+ s_miss_rate = gen_float in
    ( key,
      {
        Engine.s_refs;
        s_misses;
        s_cold_misses;
        s_evictions;
        s_bytes_loaded;
        s_miss_rate;
      } ))

let same_sim (a : Engine.sim) (b : Engine.sim) =
  { a with Engine.s_miss_rate = 0. } = { b with Engine.s_miss_rate = 0. }
  && same_float a.Engine.s_miss_rate b.Engine.s_miss_rate

let gen_campaign_entry =
  QCheck2.Gen.(
    let+ label = gen_text
    and+ shard = int
    and+ lo = int
    and+ hi = int
    and+ t_trials = int
    and+ t_consistent = int
    and+ t_completed = int
    and+ t_mismatches = int
    and+ t_fault_escapes = int
    and+ t_livelocks = int
    and+ t_reboots = int
    and+ t_torn = int
    and+ t_reboots_completed = int
    and+ t_cycles_completed = gen_float
    and+ t_energy_completed = gen_float in
    ( (label, shard, lo, hi),
      {
        C.t_trials;
        t_consistent;
        t_completed;
        t_mismatches;
        t_fault_escapes;
        t_livelocks;
        t_reboots;
        t_torn;
        t_reboots_completed;
        t_cycles_completed;
        t_energy_completed;
      } ))

let same_tally (a : C.tally) (b : C.tally) =
  let ints t =
    { t with C.t_cycles_completed = 0.; C.t_energy_completed = 0. }
  in
  ints a = ints b
  && same_float a.C.t_cycles_completed b.C.t_cycles_completed
  && same_float a.C.t_energy_completed b.C.t_energy_completed

(* A codec under test, with its entry generator and value equality. *)
type ('k, 'v) case = {
  name : string;
  codec : ('k, 'v) Store.codec;
  gen : ('k * 'v) QCheck2.Gen.t;
  same : 'v -> 'v -> bool;
}

let dse_case =
  { name = "dse"; codec = Dse.memo_codec; gen = gen_dse_entry; same = same_sim }

let campaign_case =
  {
    name = "campaign";
    codec = C.progress_codec;
    gen = gen_campaign_entry;
    same = same_tally;
  }

let open_ok ?fingerprint c path =
  match Store.create ?fingerprint ~path c.codec with
  | Ok t -> t
  | Error e -> QCheck2.Test.fail_reportf "open: %s" (Store.error_message e)

(* Last binding per key, as the store keeps it. *)
let distinct entries =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Every binding of [t] is one of [entries], with an identical value. *)
let subset c t entries =
  let found =
    List.filter
      (fun (k, v) ->
        match Store.find t k with
        | v' ->
            c.same v v' || QCheck2.Test.fail_report "a loaded value differs"
        | exception Not_found -> false)
      entries
  in
  List.length found = Store.length t

let write_store ?fingerprint c path entries =
  let t = open_ok ?fingerprint c path in
  List.iter (fun (k, v) -> Store.add t k v) entries;
  Store.close t

(* --- properties ---------------------------------------------------------- *)

let prop_round_trip c =
  QCheck2.Test.make ~count:200
    ~name:(c.name ^ " codec: a reopened store holds every entry bit for bit")
    QCheck2.Gen.(pair gen_text (small_list c.gen))
    (fun (fingerprint, entries) ->
      with_temp_file (fun path ->
          write_store ~fingerprint c path entries;
          let t = open_ok ~fingerprint c path in
          Store.close t;
          let expected = distinct entries in
          Store.length t = List.length expected && subset c t expected))

let prop_mutation c =
  QCheck2.Test.make ~count:6
    ~name:
      (c.name
     ^ " store: every cut or flipped byte opens to a subset or a typed error")
    QCheck2.Gen.(triple (list_size (1 -- 3) c.gen) c.gen (1 -- 255))
    (fun (entries, (k_new, v_new), mask) ->
      with_temp_file (fun path ->
          let entries = distinct entries in
          write_store ~fingerprint:"fp" c path entries;
          let bytes = read_file path in
          let opens data =
            write_file path data;
            Store.create ~fingerprint:"fp" ~path c.codec
          in
          for cut = 0 to String.length bytes - 1 do
            match opens (String.sub bytes 0 cut) with
            | Error e ->
                QCheck2.Test.fail_reportf "cut at %d: %s" cut
                  (Store.error_message e)
            | Ok t ->
                if not (subset c t entries) then
                  QCheck2.Test.fail_reportf "cut at %d: unwritten entries" cut;
                Store.add t k_new v_new;
                Store.close t;
                let t = open_ok ~fingerprint:"fp" c path in
                Store.close t;
                if not (Store.mem t k_new && c.same v_new (Store.find t k_new))
                then
                  QCheck2.Test.fail_reportf
                    "cut at %d: the entry appended after reopening is lost" cut
          done;
          for i = 0 to String.length bytes - 1 do
            let flipped = Bytes.of_string bytes in
            Bytes.set flipped i
              (Char.chr (Char.code (Bytes.get flipped i) lxor mask));
            match opens (Bytes.to_string flipped) with
            | Error _ -> ()
            | Ok t ->
                Store.close t;
                if not (subset c t entries) then
                  QCheck2.Test.fail_reportf "flip at %d: unwritten entries" i
          done;
          true))

(* --- typed errors --------------------------------------------------------- *)

let expect_error what f =
  match f () with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e -> e

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A file written by the previous, Marshal-based store: its magic line
   names version 1. *)
let v1_files_rejected () =
  with_temp_file (fun path ->
      let key = (1, 2, 512, "lru", 0) in
      let sim =
        {
          Engine.s_refs = 10;
          s_misses = 3;
          s_cold_misses = 2;
          s_evictions = 1;
          s_bytes_loaded = 96;
          s_miss_rate = 0.3;
        }
      in
      write_file path
        ("swapram-dse-memo/1\n" ^ Marshal.to_string (key, sim) []);
      let msg =
        expect_error "dse v1 store" (fun () ->
            Dse.run ~store:path Dse.default_grid [])
      in
      Alcotest.(check bool)
        ("names the expected version: " ^ msg)
        true
        (contains msg "swapram-dse-memo/2");
      let plan = C.default_plan in
      let shard = ("journal/swapram/uniform", 0, 0, 25) in
      write_file path
        ("swapram-campaign-progress/1\n" ^ C.fingerprint plan ^ "\n"
        ^ Marshal.to_string (shard, C.tally_zero) []);
      let msg =
        expect_error "campaign v1 progress file" (fun () ->
            C.run ~progress_file:path plan)
      in
      Alcotest.(check bool)
        ("names the expected version: " ^ msg)
        true
        (contains msg "swapram-campaign-progress/2"))

let header_and_entry_errors () =
  with_temp_file (fun path ->
      let entries =
        QCheck2.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:2
          gen_campaign_entry
      in
      let create ?fingerprint () =
        Store.create ?fingerprint ~path C.progress_codec
      in
      write_store ~fingerprint:"a" campaign_case path entries;
      let good = read_file path in
      (match expect_error "other fingerprint" (create ~fingerprint:"b") with
      | Store.Wrong_fingerprint _ -> ()
      | e -> Alcotest.failf "wrong error: %s" (Store.error_message e));
      (match expect_error "other format" (fun () ->
           Store.create ~fingerprint:"a" ~path Dse.memo_codec)
       with
      | Store.Wrong_format { expected = "swapram-dse-memo/2"; _ } -> ()
      | e -> Alcotest.failf "wrong error: %s" (Store.error_message e));
      (* line 3 is the second entry: damage its digest, then give it a
         valid digest over payloads the store or the codec cannot read *)
      let lines = String.split_on_char '\n' good in
      let bad line =
        write_file path
          (String.concat "\n"
             (List.mapi (fun i l -> if i = 2 then line else l) lines));
        match expect_error "corrupt line" (create ~fingerprint:"a") with
        | Store.Corrupt_entry { line = 3; _ } -> ()
        | e -> Alcotest.failf "wrong error: %s" (Store.error_message e)
      in
      let entry = List.nth lines 2 in
      bad
        (Digest.to_hex (Digest.string "another payload")
        ^ String.sub entry 32 (String.length entry - 32));
      List.iter
        (fun payload -> bad (Digest.to_hex (Digest.string payload) ^ " " ^ payload))
        [ "not json"; "[\"a JSON array that is not a tally\"]" ];
      (* an empty existing file is a fresh store *)
      write_file path "";
      match create ~fingerprint:"a" () with
      | Ok t ->
          Store.close t;
          Alcotest.(check int) "fresh" 0 (Store.length t)
      | Error e -> Alcotest.fail (Store.error_message e))

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_round_trip dse_case);
    QCheck_alcotest.to_alcotest (prop_round_trip campaign_case);
    QCheck_alcotest.to_alcotest (prop_mutation dse_case);
    QCheck_alcotest.to_alcotest (prop_mutation campaign_case);
    Alcotest.test_case "version-1 Marshal files are rejected by version"
      `Quick v1_files_rejected;
    Alcotest.test_case "fingerprint, format and entry errors are typed"
      `Quick header_and_entry_errors;
  ]
