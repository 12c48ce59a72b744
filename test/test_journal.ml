(* The durability battery (lib/journal): qcheck round-trips of the framed
   record codec over arbitrary ops and labels (including the full
   256-byte corpus), crash injection truncating AND corrupting the
   journal at every byte boundary of the final record — recovery must
   either replay the full committed prefix or cleanly drop the torn tail,
   never raise, never apply half a batch — snapshot self-checksums, and
   store-level do/undo/recover round-trips verified by graph digests, and
   negative tests showing that every digest and version check rejects
   what it exists to reject. *)

module D = Ig_graph.Digraph
module R = Ig_journal.Record
module J = Ig_journal.Journal
module Sn = Ig_journal.Snapshot
module St = Ig_journal.Store
module Json = Ig_obs.Json

let check = Alcotest.check

(* ---- fixtures ------------------------------------------------------------ *)

(* Fresh working directories under the test's cwd (the dune build dir). *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "tj_scratch_%d" !n in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let mk_graph () =
  let g = D.create () in
  for _ = 0 to 5 do
    ignore (D.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (D.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4) ];
  g

let header_of g =
  {
    R.version = R.format_version;
    cls = "scc";
    bound = 0;
    qargs = [];
    base_digest = J.graph_digest g;
  }

let mk_store dir =
  let g = mk_graph () in
  (St.init ~dir ~header:(header_of g) ~client:(St.graph_client g) (), g)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- record codec: qcheck round-trips ------------------------------------ *)

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun u v -> R.Upsert_edge (u, v)) small_nat small_nat;
        map2 (fun u v -> R.Tombstone_edge (u, v)) small_nat small_nat;
        map2
          (fun id l -> R.Upsert_node (id, l))
          small_nat
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40));
        map (fun id -> R.Tombstone_node id) small_nat;
      ])

let hex_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '0' ]) (return 32))

let batch_gen =
  QCheck.Gen.(
    map
      (fun ((seq, k), (ops, (pre, post))) ->
        let kind = match k with None -> R.Do | Some n -> R.Undo n in
        { R.seq; kind; ops; pre; post })
      (pair
         (pair small_nat (opt (int_range 1 9)))
         (pair (list_size (int_range 0 12) op_gen) (pair hex_gen hex_gen))))

let header_gen =
  QCheck.Gen.(
    map
      (fun ((cls, bound), (qargs, base_digest)) ->
        { R.version = R.format_version; cls; bound; qargs; base_digest })
      (pair
         (pair (string_size ~gen:printable (int_range 0 10)) small_nat)
         (pair
            (list_size (int_range 0 5)
               (string_size
                  ~gen:(map Char.chr (int_range 0 255))
                  (int_range 0 20)))
            hex_gen)))

let payload_gen =
  QCheck.Gen.(
    oneof
      [ map (fun h -> R.Header h) header_gen; map (fun b -> R.Batch b) batch_gen ])

let roundtrip p =
  let framed = R.frame (R.encode_payload p) in
  match R.read_record framed ~pos:0 with
  | Ok (p', pos) -> p' = p && pos = String.length framed
  | Error _ -> false

let qcheck_roundtrip =
  QCheck.Test.make ~name:"framed payload decodes to itself" ~count:500
    (QCheck.make payload_gen) roundtrip

(* A record whose label walks the whole byte alphabet (the all-256-bytes
   corpus): framing, checksumming and label escaping must all survive. *)
let test_all_bytes_label () =
  let label = String.init 256 Char.chr in
  let b =
    {
      R.seq = 1;
      kind = R.Do;
      ops = [ R.Upsert_node (7, label); R.Upsert_edge (0, 7) ];
      pre = String.make 32 'a';
      post = String.make 32 'b';
    }
  in
  check Alcotest.bool "256-byte label round-trips" true (roundtrip (R.Batch b))

let test_read_record_errors () =
  let framed = R.frame (R.encode_payload (R.Header (header_of (mk_graph ())))) in
  (* every strict prefix is Truncated or Corrupt, never an exception *)
  for len = 0 to String.length framed - 1 do
    match R.read_record (String.sub framed 0 len) ~pos:0 with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | Error _ -> ()
  done;
  (* a flipped payload byte must trip the checksum *)
  let body = Bytes.of_string framed in
  Bytes.set body 6 (Char.chr (Char.code (Bytes.get body 6) lxor 0xff));
  match R.read_record (Bytes.to_string body) ~pos:0 with
  | Ok _ -> Alcotest.fail "corrupted record decoded"
  | Error (R.Corrupt _) | Error R.Truncated -> ()

let test_op_ids_deterministic () =
  let op = R.Upsert_edge (3, 7) in
  let id = R.op_id ~seq:4 ~index:1 op in
  check Alcotest.int "hex md5 length" 32 (String.length id);
  check Alcotest.string "derived, stable" id (R.op_id ~seq:4 ~index:1 op);
  check Alcotest.bool "position-sensitive" false
    (id = R.op_id ~seq:4 ~index:2 op)

(* ---- op semantics -------------------------------------------------------- *)

let test_effective_ops () =
  let g = mk_graph () in
  (* duplicate insert and absent delete are no-ops *)
  check Alcotest.int "duplicate insert drops" 0
    (List.length (J.effective_ops g [ D.Insert (0, 1) ]));
  check Alcotest.int "absent delete drops" 0
    (List.length (J.effective_ops g [ D.Delete (4, 5) ]));
  (* within-batch dependency: insert then delete of an absent edge *)
  check Alcotest.int "insert+delete both effective" 2
    (List.length (J.effective_ops g [ D.Insert (4, 5); D.Delete (4, 5) ]));
  (* the graph itself is untouched by normalization *)
  check Alcotest.bool "graph unmodified" false (D.mem_edge g 4 5)

let test_apply_op_idempotent () =
  let g = mk_graph () in
  let d0 = J.graph_digest g in
  J.apply_op g (R.Upsert_edge (4, 5));
  let d1 = J.graph_digest g in
  J.apply_op g (R.Upsert_edge (4, 5));
  check Alcotest.string "second upsert is a no-op" d1 (J.graph_digest g);
  J.apply_op g (R.Tombstone_edge (4, 5));
  J.apply_op g (R.Tombstone_edge (4, 5));
  check Alcotest.string "tombstones idempotent too" d0 (J.graph_digest g)

let test_invert () =
  (match J.invert [ R.Upsert_edge (1, 2); R.Tombstone_edge (3, 4) ] with
  | Ok inv ->
      check Alcotest.bool "inverses in reverse order" true
        (inv = [ R.Upsert_edge (3, 4); R.Tombstone_edge (1, 2) ])
  | Error e -> Alcotest.fail e);
  match J.invert [ R.Upsert_node (9, "x") ] with
  | Ok _ -> Alcotest.fail "monotone node op inverted"
  | Error _ -> ()

(* ---- crash injection at every byte boundary ------------------------------ *)

(* Byte offsets where each framed record starts, walking the file with the
   codec itself. *)
let record_offsets src =
  let rec go pos acc =
    if pos >= String.length src then List.rev acc
    else
      match R.read_record src ~pos with
      | Ok (_, next) -> go next (pos :: acc)
      | Error _ -> List.rev acc
  in
  go (String.length R.magic) []

let mk_journal_with_batches dir =
  let store, _ = mk_store dir in
  List.iter
    (fun u -> ignore (St.do_batch store [ u ]))
    [ D.Insert (4, 5); D.Insert (5, 3); D.Delete (0, 1) ];
  let path = St.journal_path ~dir in
  St.close store;
  path

(* Truncate the journal to every length inside the final record: the scan
   must keep every earlier batch, report the tail torn at the final
   record's offset, and repair must restore a clean journal. *)
let test_truncate_every_boundary () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let src = read_file path in
  let offsets = record_offsets src in
  let last = List.nth offsets (List.length offsets - 1) in
  let scratch = Filename.concat dir "truncated.igj" in
  (* cutting exactly at the record boundary leaves a shorter clean file *)
  write_file scratch (String.sub src 0 last);
  (match J.scan ~path:scratch with
  | Ok { J.tail = J.Clean; batches; _ } ->
      check Alcotest.int "boundary cut is clean" 2 (List.length batches)
  | Ok _ -> Alcotest.fail "boundary cut reported torn"
  | Error e -> Alcotest.failf "boundary cut unreadable: %s" e);
  for len = last + 1 to String.length src - 1 do
    write_file scratch (String.sub src 0 len);
    match J.scan ~path:scratch with
    | Error e -> Alcotest.failf "truncation to %d: unreadable: %s" len e
    | Ok s -> (
        check Alcotest.int
          (Printf.sprintf "truncation to %d keeps committed prefix" len)
          2
          (List.length s.J.batches);
        match s.J.tail with
        | J.Clean -> Alcotest.failf "truncation to %d reported clean" len
        | J.Torn { offset; dropped; _ } ->
            check Alcotest.int "tear at the final record" last offset;
            check Alcotest.int "dropped bytes" (len - last) dropped;
            (match J.repair ~path:scratch with
            | Error e -> Alcotest.failf "repair at %d: %s" len e
            | Ok n -> check Alcotest.int "repair drops the tail" (len - last) n);
            (match J.scan ~path:scratch with
            | Ok { J.tail = J.Clean; batches; _ } ->
                check Alcotest.int "clean after repair" 2 (List.length batches)
            | Ok _ -> Alcotest.failf "still torn after repair at %d" len
            | Error e -> Alcotest.failf "unreadable after repair: %s" e))
  done

(* Flip every byte of the final record in turn: the checksummed frame must
   reject the record as a unit — two committed batches survive, nothing
   half-applied, no exception. *)
let test_corrupt_every_byte () =
  let dir = fresh_dir () in
  let path = mk_journal_with_batches dir in
  let src = read_file path in
  let offsets = record_offsets src in
  let last = List.nth offsets (List.length offsets - 1) in
  let scratch = Filename.concat dir "corrupt.igj" in
  for i = last to String.length src - 1 do
    let b = Bytes.of_string src in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    write_file scratch (Bytes.to_string b);
    match J.scan ~path:scratch with
    | Error e -> Alcotest.failf "corruption at byte %d: unreadable: %s" i e
    | Ok s ->
        check Alcotest.int
          (Printf.sprintf "corruption at byte %d drops the record whole" i)
          2
          (List.length s.J.batches);
        check Alcotest.bool "tail reported torn" true (s.J.tail <> J.Clean)
  done

(* ---- snapshots ----------------------------------------------------------- *)

let test_snapshot_checksum () =
  let dir = fresh_dir () in
  let store, g = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let p = St.snapshot store in
  St.close store;
  (match Sn.load ~path:p with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.int "snapshot at tip" 1 s.Sn.seq;
      check Alcotest.string "graph digest matches the live graph"
        (J.graph_digest g) s.Sn.graph_digest);
  (* tampering with one byte must fail the self-checksum *)
  let src = read_file p in
  let i = String.index src ':' in
  let b = Bytes.of_string src in
  Bytes.set b i ';';
  write_file p (Bytes.to_string b);
  match Sn.load ~path:p with
  | Ok _ -> Alcotest.fail "tampered snapshot validated"
  | Error _ -> ()

(* A corrupt newest snapshot must not strand recovery: plan falls back to
   an older intact one. *)
let test_plan_skips_corrupt_snapshot () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let p = St.snapshot store in
  ignore (St.do_batch store [ D.Insert (5, 3) ]);
  St.close store;
  write_file p "{ not a snapshot";
  match St.plan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check Alcotest.int "fell back to snapshot-0" 0 plan.St.snapshot.Sn.seq;
      check Alcotest.int "replays the whole journal" 2
        (List.length plan.St.replay)

(* ---- store round-trips --------------------------------------------------- *)

let test_do_undo_recover () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  let d0 = St.digest store in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let d1 = St.digest store in
  ignore (St.do_batch store [ D.Insert (5, 3); D.Delete (0, 1) ]);
  (* undo(do(G)) = G, digest-for-digest *)
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "undo 1 restores" d1 (St.digest store));
  (* the last two batches are now {undo of seq 2, seq 2}: rolling both
     back is a wash — the target is the pre of the oldest undone batch *)
  (match St.undo store ~k:2 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "undo spanning an undo" d1 (St.digest store));
  (* rolling back the entire history lands at the base *)
  (match St.undo store ~k:(St.tip store) with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "full rollback" d0 (St.digest store));
  check Alcotest.bool "no-op batches are not journaled" true
    (St.do_batch store [ D.Delete (4, 5) ] = None);
  let tip = St.tip store in
  St.close store;
  (* crash-recover: rebuild from snapshot-0, replay everything *)
  match St.plan ~from_scratch:true ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.int "tip survives recovery" tip (St.tip st);
          check Alcotest.string "replay reproduces the digest" d0
            (St.digest st);
          check Alcotest.bool "writable at the tip" true (St.writable st);
          St.close st)

let test_undo_of_undo_is_redo () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let after = St.digest store in
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (match St.undo store ~k:1 with
  | Error e -> Alcotest.fail e
  | Ok _ -> check Alcotest.string "redo" after (St.digest store));
  St.close store

let test_as_of_time_travel () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let d1 = St.digest store in
  ignore (St.do_batch store [ D.Insert (5, 3) ]);
  St.close store;
  match St.plan ~as_of:1 ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.string "state as of seq 1" d1 (St.digest st);
          check Alcotest.bool "historical stores are read-only" false
            (St.writable st);
          (match St.undo st ~k:1 with
          | Ok _ -> Alcotest.fail "appended to a rewound history"
          | Error _ | (exception Failure _) -> ());
          St.close st)

(* A crash between the write-ahead append and the engine apply: the
   journal has the batch, the engine does not. Recovery replays it. *)
let test_write_ahead_crash () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  St.append_unapplied_for_crash_testing store [ D.Insert (5, 3) ];
  let tip = St.tip store in
  St.close store;
  match St.plan ~from_scratch:true ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      check Alcotest.int "unapplied batch is committed" tip plan.St.tip;
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.bool "journal wins after the crash" true
            (D.mem_edge g 5 3);
          St.close st)

(* A batch naming an unknown node is rejected before anything is
   journaled: the tip stays put and the session still recovers (a
   journaled bad batch would fail every later replay). *)
let test_unknown_node_rejected () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let tip = St.tip store and digest = St.digest store in
  let rejects name f =
    (match f () with
    | _ -> Alcotest.failf "%s: unknown node accepted" name
    | exception Invalid_argument _ -> ());
    check Alcotest.int (name ^ ": tip unchanged") tip (St.tip store);
    check Alcotest.string (name ^ ": graph unchanged") digest (St.digest store)
  in
  rejects "do_batch" (fun () ->
      ignore (St.do_batch store [ D.Insert (5, 3); D.Insert (0, 99999) ]));
  rejects "append_unapplied" (fun () ->
      St.append_unapplied_for_crash_testing store [ D.Delete (99999, 0) ]);
  St.close store;
  match St.plan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      check Alcotest.int "nothing journaled" tip plan.St.tip;
      let g = Sn.graph plan.St.snapshot in
      match St.attach ~dir ~plan ~client:(St.graph_client g) () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.string "recovers to the same graph" digest
            (St.digest st);
          St.close st)

(* ---- the checks bite ------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let expect_error ~ctx ~substr = function
  | Ok _ -> Alcotest.failf "%s: accepted, expected an error with %S" ctx substr
  | Error e ->
      if not (contains e substr) then
        Alcotest.failf "%s: error %S does not mention %S" ctx e substr

let expect_failure ~ctx ~substr f =
  expect_error ~ctx ~substr
    (match f () with _ -> Ok () | exception Failure e -> Error e)

(* A graph client whose engine misapplies batches while [faulty] is set:
   [`Drop] loses the first op, [`Extra] also inserts an absent edge. *)
let faulty_client g fault faulty =
  let base = St.graph_client g in
  {
    base with
    St.apply =
      (fun ops ->
        if not !faulty then base.St.apply ops
        else
          match fault with
          | `Drop -> base.St.apply (List.tl ops)
          | `Extra ->
              base.St.apply ops;
              ignore (D.add_edge g 5 0));
  }

let test_do_batch_diverged () =
  List.iter
    (fun (name, fault) ->
      let dir = fresh_dir () in
      let g = mk_graph () in
      let client = faulty_client g fault (ref true) in
      let store = St.init ~dir ~header:(header_of g) ~client () in
      expect_failure ~ctx:name ~substr:"engine diverged" (fun () ->
          St.do_batch store [ D.Insert (4, 5); D.Delete (0, 1) ]);
      St.close store)
    [ ("dropped op", `Drop); ("extra edge", `Extra) ]

let test_undo_diverged () =
  let dir = fresh_dir () in
  let g = mk_graph () and faulty = ref false in
  let store =
    St.init ~dir ~header:(header_of g) ~client:(faulty_client g `Drop faulty) ()
  in
  ignore (St.do_batch store [ D.Insert (4, 5); D.Delete (0, 1) ]);
  faulty := true;
  expect_error ~ctx:"undo" ~substr:"rolled-back digest" (St.undo store ~k:1);
  St.close store

(* Recovery checks the rebuilt graph against the snapshot digest, and
   every replayed batch against its journaled pre and post digests. *)
let test_attach_checks () =
  let journaled () =
    let dir = fresh_dir () in
    let store, _ = mk_store dir in
    ignore (St.do_batch store [ D.Insert (4, 5); D.Delete (0, 1) ]);
    St.close store;
    dir
  in
  let attach ?(fault = `None) dir =
    match St.plan ~from_scratch:true ~dir () with
    | Error e -> Alcotest.fail e
    | Ok plan ->
        let g = Sn.graph plan.St.snapshot in
        let client =
          match fault with
          | `None -> St.graph_client g
          | `Snapshot ->
              ignore (D.add_edge g 5 0);
              St.graph_client g
          | `Drop -> faulty_client g `Drop (ref true)
        in
        Result.map St.close (St.attach ~dir ~plan ~client ())
  in
  expect_error ~ctx:"rebuilt graph off its snapshot"
    ~substr:"snapshot-0: graph digest"
    (attach ~fault:`Snapshot (journaled ()));
  expect_error ~ctx:"diverging replay" ~substr:"batch 1 post"
    (attach ~fault:`Drop (journaled ()));
  (* A journaled batch whose pre digest is not the state it follows: its
     ops and post are sound, so only the pre check can reject it. *)
  let dir = journaled () in
  let path = St.journal_path ~dir in
  let scanned =
    match J.scan ~path with Ok s -> s | Error e -> Alcotest.fail e
  in
  let j = J.create ~fsync:false ~path scanned.J.header in
  List.iter
    (fun b ->
      ignore
        (J.append j ~kind:b.R.kind ~ops:b.R.ops ~pre:(b.R.pre ^ "0")
           ~post:b.R.post))
    scanned.J.batches;
  J.close j;
  expect_error ~ctx:"forged pre digest" ~substr:"batch 1 pre" (attach dir);
  check Alcotest.bool "the untouched journal attaches" true
    (attach (journaled ()) = Ok ())

let saved_snapshot () =
  let dir = fresh_dir () in
  let store, _ = mk_store dir in
  ignore (St.do_batch store [ D.Insert (4, 5) ]);
  let p = St.snapshot store in
  St.close store;
  match Sn.load ~path:p with Ok s -> s | Error e -> Alcotest.fail e

(* Checksum recomputed over a graph text with one edge changed: only the
   digest check can tell. *)
let test_snapshot_digest_bites () =
  let s = saved_snapshot () in
  let graph_text =
    String.concat "\n"
      (List.map
         (fun l -> if l = "e 3 4" then "e 3 5" else l)
         (String.split_on_char '\n' s.Sn.graph_text))
  in
  check Alcotest.bool "one edge changed" false (graph_text = s.Sn.graph_text);
  check Alcotest.bool "intact snapshot validates" true
    (Result.is_ok (Sn.validate (Sn.to_json s)));
  expect_error ~ctx:"edited graph text"
    ~substr:"graph digest does not match graph text"
    (Sn.validate (Sn.to_json { s with Sn.graph_text }))

let test_old_versions_rejected () =
  let path = fresh_dir () ^ ".igj" in
  J.close
    (J.create ~fsync:false ~path
       { (header_of (mk_graph ())) with R.version = 1 });
  expect_error ~ctx:"version-1 journal" ~substr:"format version 1, expected 2"
    (J.scan ~path);
  let json =
    match Sn.to_json (saved_snapshot ()) with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Json.Int 1) else (k, v))
             fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  expect_error ~ctx:"schema 1 snapshot" ~substr:"schema_version 1, expected 2"
    (Sn.validate json)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_journal"
    [
      ( "codec",
        qsuite [ qcheck_roundtrip ]
        @ [
            Alcotest.test_case "all-256-bytes label" `Quick test_all_bytes_label;
            Alcotest.test_case "prefixes and flips error out" `Quick
              test_read_record_errors;
            Alcotest.test_case "op ids deterministic" `Quick
              test_op_ids_deterministic;
          ] );
      ( "ops",
        [
          Alcotest.test_case "effective normalization" `Quick
            test_effective_ops;
          Alcotest.test_case "idempotent replay" `Quick
            test_apply_op_idempotent;
          Alcotest.test_case "inversion" `Quick test_invert;
        ] );
      ( "crash injection",
        [
          Alcotest.test_case "truncate every boundary" `Quick
            test_truncate_every_boundary;
          Alcotest.test_case "corrupt every byte" `Quick
            test_corrupt_every_byte;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "self-checksum" `Quick test_snapshot_checksum;
          Alcotest.test_case "corrupt snapshot skipped" `Quick
            test_plan_skips_corrupt_snapshot;
        ] );
      ( "store",
        [
          Alcotest.test_case "do/undo/recover" `Quick test_do_undo_recover;
          Alcotest.test_case "undo of undo is redo" `Quick
            test_undo_of_undo_is_redo;
          Alcotest.test_case "as-of time travel" `Quick test_as_of_time_travel;
          Alcotest.test_case "write-ahead crash" `Quick test_write_ahead_crash;
          Alcotest.test_case "unknown node rejected before journaling" `Quick
            test_unknown_node_rejected;
        ] );
      ( "checks bite",
        [
          Alcotest.test_case "do_batch detects a diverged engine" `Quick
            test_do_batch_diverged;
          Alcotest.test_case "undo detects a diverged rollback" `Quick
            test_undo_diverged;
          Alcotest.test_case "attach checks snapshot, pre and post" `Quick
            test_attach_checks;
          Alcotest.test_case "snapshot digest vs graph text" `Quick
            test_snapshot_digest_bites;
          Alcotest.test_case "old versions rejected" `Quick
            test_old_versions_rejected;
        ] );
    ]
