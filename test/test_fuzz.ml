(* Differential fuzzing: every incremental engine cross-checked against its
   batch oracle (kdist BFS, NFA-product reachability, Tarjan, the simulation
   fixpoint, VF2) under seeded random update streams, with check_invariants
   validating the auxiliary certificates after every unit update.

   Tier-1 runs a bounded number of steps per algorithm inside `dune
   runtest`; `dune build @fuzz` reruns the same cases as a soak (see
   FUZZ_STEPS below). The mutation tests plant a bug — a corrupted kdist
   certificate entry, then an engine that drops certain deletions — and
   assert the harness both detects it and ddmin-shrinks the failing stream
   to a minimal reproducer. *)

open Ig_graph
module O = Ig_check.Oracle
module A = Ig_check.Adapters
module St = Ig_check.Stream
module Sh = Ig_check.Shrink
module H = Ig_check.Harness
module Sc = Ig_check.Scenarios

let check = Alcotest.check

(* Tier-1 bound: 400 mixed insert/delete steps per algorithm. The @fuzz
   alias overrides via FUZZ_STEPS for soak runs. *)
let steps =
  match Sys.getenv_opt "FUZZ_STEPS" with
  | Some s -> ( try int_of_string s with Failure _ -> 400)
  | None -> 400

(* ---- differential fuzz, one case per algorithm -------------------------- *)

let scenario_case (name, seed) =
  Alcotest.test_case
    (Printf.sprintf "%s: %d steps vs batch oracle" name steps)
    `Quick
    (fun () ->
      let rng = Random.State.make [| 0x90; seed |] in
      match Sc.by_name ~rng name with
      | None -> Alcotest.failf "unknown scenario %s" name
      | Some s -> (
          match
            H.run ~make:s.Sc.make ~focus:s.Sc.focus ~steps ~seed ()
          with
          | Ok n -> check Alcotest.int "steps completed" steps n
          | Error f -> Alcotest.failf "%a" H.pp_failure f))

let scenario_seeds =
  [
    ("kws", 101);
    ("rpq", 102);
    ("scc", 103);
    ("sim", 104);
    ("iso", 105);
    (* The Fig. 9 two-cycle gadget: the stream keeps toggling the Δ1/Δ2
       bridge edges whose interaction the RPQ unboundedness proof turns
       on. *)
    ("gadget", 106);
  ]

(* The "csr" suites (named after the graph store) replay every scenario
   from a second seed family, doubling the streams each run covers. *)
let reseed = List.map (fun (name, seed) -> (name, seed + 1000))

let scenario_cases = List.map scenario_case scenario_seeds
let scenario_cases_csr = List.map scenario_case (reseed scenario_seeds)

(* ---- durable fuzz: journaled do/undo/crash-recover interleavings -------- *)

(* Each engine under Ig_check.Durable: every update write-ahead journaled,
   random interleaved undo k, do→undo byte-identity pairs, snapshots, and
   clean/torn crash-recoveries — with the differential oracle consulted
   after every action. Step count is fixed (not FUZZ_STEPS-scaled): the
   crash actions rebuild the engine from scratch, so soak scaling belongs
   to the cheaper differential cases above. *)
let durable_steps = 200

let durable_case (name, seed) =
  Alcotest.test_case
    (Printf.sprintf "%s: %d journaled do/undo/crash steps" name durable_steps)
    `Quick
    (fun () ->
      let rng = Random.State.make [| 0xd0; seed |] in
      match Sc.by_name ~rng name with
      | None -> Alcotest.failf "unknown scenario %s" name
      | Some s -> (
          match
            Ig_check.Durable.run ~scenario:s
              ~dir:(Printf.sprintf "durable_%s_%d" name seed)
              ~steps:durable_steps ~seed ()
          with
          | Ok n -> check Alcotest.int "steps completed" durable_steps n
          | Error msg -> Alcotest.fail msg))

let durable_seeds =
  [ ("kws", 201); ("rpq", 202); ("scc", 203); ("sim", 204); ("iso", 205) ]

let durable_cases = List.map durable_case durable_seeds
let durable_cases_csr = List.map durable_case (reseed durable_seeds)

(* ---- journal headers rebuild the same engine ----------------------------- *)

(* What a journal header records — [to_args] of the scenario's query —
   must rebuild an engine with the same answer and certificates over the
   base graph: that is all [incgraph replay] has to go on. *)
let header_roundtrip_case name =
  Alcotest.test_case name `Quick (fun () ->
      for seed = 1 to 20 do
        let rng = Random.State.make [| 0x4ead; seed |] in
        let s = Option.get (Sc.by_name ~rng name) in
        let cls, bound, args = A.to_args s.Sc.query in
        match A.of_args ~cls ~bound ~args with
        | Error e -> Alcotest.failf "seed %d: %s" seed e
        | Ok q ->
            let direct = s.Sc.make () and rebuilt = A.make q s.Sc.base in
            check Alcotest.string
              (Printf.sprintf "seed %d answer" seed)
              (direct.O.answer ()) (rebuilt.O.answer ());
            check
              Alcotest.(list (pair string string))
              (Printf.sprintf "seed %d certificates" seed)
              (direct.O.cert_snapshot ()) (rebuilt.O.cert_snapshot ())
      done)

let header_roundtrip_cases =
  List.map header_roundtrip_case [ "kws"; "rpq"; "scc"; "sim"; "iso"; "gadget" ]

(* Malformed command-line queries are [Error]s, never exceptions. *)
let bad_args_case (what, cls, args) =
  Alcotest.test_case what `Quick (fun () ->
      match A.of_args ~cls ~bound:2 ~args with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())

let bad_args_cases =
  List.map bad_args_case
    [
      ("out-of-range pattern edge", "iso", [ "l0"; "l1"; "0-5" ]);
      ("pattern without labels", "iso", [ "0-1" ]);
      ("disconnected pattern", "sim", [ "l0"; "l1"; "l2"; "0-1" ]);
      ("bad regex", "rpq", [ "l1 . (" ]);
      ("unknown class", "bfs", [ "l1" ]);
    ]

(* ---- malformed batches --------------------------------------------------- *)

(* A batch naming a node that does not exist must be rejected before any
   write: the engine raises [Invalid_argument] and its graph, answer and
   certificates stay exactly at their pre-batch state. The valid ops
   ahead of the bad one are effective (a fresh edge and a live-edge
   delete), so a late rejection would leave a visible trace. *)
type engine = {
  answer : unit -> string;
  apply_batch : Digraph.update list -> unit;
  invariants : unit -> unit;
}

let malformed_engines =
  let pattern = Ig_iso.Pattern.create ~labels:[ "a"; "b" ] ~edges:[ (0, 1) ] in
  [
    ( "kws",
      fun g ->
        let module I = Ig_kws.Inc_kws in
        let t = I.init g { Ig_kws.Batch.keywords = [ "b"; "c" ]; bound = 2 } in
        {
          answer = (fun () -> A.canon_nodes (I.match_roots t));
          apply_batch = (fun us -> ignore (I.apply_batch t us));
          invariants = (fun () -> I.check_invariants t);
        } );
    ( "rpq",
      fun g ->
        let module I = Ig_rpq.Inc_rpq in
        let t = I.create g (Ig_nfa.Regex.parse_exn "a . b* . c") in
        {
          answer = (fun () -> A.canon_pairs (I.matches t));
          apply_batch = (fun us -> ignore (I.apply_batch t us));
          invariants = (fun () -> I.check_invariants t);
        } );
    ( "scc",
      fun g ->
        let module I = Ig_scc.Inc_scc in
        let t = I.init g in
        {
          answer = (fun () -> A.canon_comps (I.components t));
          apply_batch = (fun us -> ignore (I.apply_batch t us));
          invariants = (fun () -> I.check_invariants t);
        } );
    ( "sim",
      fun g ->
        let module I = Ig_sim.Inc_sim in
        let t = I.init g pattern in
        {
          answer = (fun () -> A.canon_pairs (Ig_sim.Sim.pairs (I.relation t)));
          apply_batch = (fun us -> ignore (I.apply_batch t us));
          invariants = (fun () -> I.check_invariants t);
        } );
    ( "iso",
      fun g ->
        let module I = Ig_iso.Inc_iso in
        let t = I.init g pattern in
        {
          answer = (fun () -> A.canon_mappings pattern (I.matches t));
          apply_batch = (fun us -> ignore (I.apply_batch t us));
          invariants = (fun () -> I.check_invariants t);
        } );
  ]

let malformed_case (name, make) =
  Alcotest.test_case name `Quick (fun () ->
      let g = Digraph.create () in
      List.iter (fun l -> ignore (Digraph.add_node g l)) [ "a"; "b"; "c" ];
      ignore (Digraph.add_edge g 0 1);
      ignore (Digraph.add_edge g 1 2);
      let e = make g in
      let edges0 = Digraph.edges g and answer0 = e.answer () in
      (match
         e.apply_batch Digraph.[ Insert (1, 0); Delete (0, 1); Insert (2, 999) ]
       with
      | () -> Alcotest.fail "malformed batch accepted"
      | exception Invalid_argument _ -> ());
      check
        Alcotest.(list (pair int int))
        "graph untouched" edges0 (Digraph.edges g);
      check Alcotest.string "answer untouched" answer0 (e.answer ());
      e.invariants ())

(* ---- stream driver ------------------------------------------------------ *)

let test_stream_deterministic () =
  let run () =
    let grng = Random.State.make [| 99 |] in
    let g = Ig_workload.Generate.uniform ~rng:grng ~nodes:20 ~edges:50 ~labels:3 () in
    let st =
      St.create ~rng:(Random.State.make [| 123 |]) ~focus:[ (0, 1); (2, 3) ] g
    in
    let us = ref [] in
    for _ = 1 to 300 do
      let u = St.next st in
      ignore (Digraph.apply g u);
      us := u :: !us
    done;
    List.rev !us
  in
  check Alcotest.bool "same seed, same stream" true (run () = run ())

let test_stream_mixes_ops () =
  let grng = Random.State.make [| 7 |] in
  let g = Ig_workload.Generate.uniform ~rng:grng ~nodes:15 ~edges:40 ~labels:3 () in
  let st = St.create ~rng:(Random.State.make [| 5 |]) g in
  let ins = ref 0 and del = ref 0 and noop = ref 0 and loops = ref 0 in
  for _ = 1 to 500 do
    let u = St.next st in
    (match u with
    | Digraph.Insert (a, b) ->
        incr ins;
        if a = b then incr loops
    | Digraph.Delete _ -> incr del);
    if not (Digraph.apply g u) then incr noop
  done;
  check Alcotest.bool "inserts present" true (!ins > 100);
  check Alcotest.bool "deletes present" true (!del > 100);
  check Alcotest.bool "no-ops exercised (dups, absent deletes)" true (!noop > 10);
  check Alcotest.bool "self-loops exercised" true (!loops > 0)

(* ---- ddmin -------------------------------------------------------------- *)

let test_ddmin_pure () =
  (* Failure needs the pair {x, y}; everything else is noise. *)
  let x = Digraph.Insert (1, 2) and y = Digraph.Delete (3, 4) in
  let noise i = Digraph.Insert (100 + i, 200 + i) in
  let stream =
    List.init 12 noise @ [ x ] @ List.init 9 (fun i -> noise (50 + i)) @ [ y ]
    @ List.init 7 (fun i -> noise (80 + i))
  in
  let fails s = List.mem x s && List.mem y s in
  check Alcotest.bool "shrinks to the pair" true
    (Sh.ddmin ~fails stream = [ x; y ]);
  check Alcotest.bool "non-failing input unchanged" true
    (Sh.ddmin ~fails:(fun _ -> false) stream = stream)

(* ---- mutation smoke tests ----------------------------------------------- *)

(* Corrupt one kdist certificate entry after init; the harness's invariant
   check must flag it (the differential layer proves it catches planted
   auxiliary-structure bugs, not just output bugs). *)
let test_mutation_kdist_detected () =
  let g = Digraph.create () in
  let k = Digraph.add_node g "key" in
  let a = Digraph.add_node g "x" in
  let b = Digraph.add_node g "x" in
  ignore (Digraph.add_edge g a k);
  ignore (Digraph.add_edge g b a);
  ignore (Digraph.add_edge g k b);
  let q = { Ig_kws.Batch.keywords = [ "key" ]; bound = 2 } in
  let make () =
    let t = Ig_kws.Inc_kws.init (Digraph.copy g) q in
    if not (Ig_kws.Inc_kws.corrupt_certificate_for_testing t) then
      Alcotest.fail "no kdist entry to corrupt";
    A.of_kws t
  in
  match H.run ~make ~steps:40 ~seed:7 () with
  | Ok _ -> Alcotest.fail "planted kdist corruption went undetected"
  | Error f ->
      check Alcotest.int "caught by the post-init check" 0 f.H.step;
      check Alcotest.bool "invariant violation reported" true
        (String.length f.H.reason > 0);
      check Alcotest.bool "shrunk to <= 10 updates" true
        (List.length f.H.shrunk <= 10)

(* A deliberately buggy engine: deletions of edges leaving node 0 are
   dropped on the floor, so the maintained answer drifts from the truth.
   The engine stays internally consistent — check_invariants cannot see the
   bug; only the differential comparison can. The harness must catch the
   first divergence and ddmin the stream to a minimal reproducer. *)
let buggy_scc g =
  let module I = Ig_scc.Inc_scc in
  let eng = I.init ~trace:(Ig_obs.Tracer.create ()) (Digraph.copy g) in
  let apply u =
    ignore (Digraph.apply g u);
    match u with
    | Digraph.Delete (0, _) -> () (* the planted bug *)
    | Digraph.Insert (a, b) -> I.insert_edge eng a b
    | Digraph.Delete (a, b) -> I.delete_edge eng a b
  in
  {
    O.name = "buggy-scc";
    graph = g;
    apply;
    apply_batch = (fun us -> List.iter apply us; (0, 0));
    size = (fun () -> List.length (I.components eng));
    answer = (fun () -> A.canon_comps (I.components eng));
    recompute = (fun () -> A.canon_comps (Ig_scc.Tarjan.scc g));
    check_invariants = (fun () -> I.check_invariants eng);
    obs = I.obs eng;
    trace = I.trace eng;
    cert_snapshot = (fun () -> I.cert_snapshot eng);
  }

let test_mutation_buggy_engine_shrinks () =
  let g = Digraph.create () in
  for _ = 0 to 5 do
    ignore (Digraph.add_node g "x")
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3); (2, 3) ];
  let make () = buggy_scc (Digraph.copy g) in
  match H.run ~make ~focus:[ (0, 1) ] ~steps:200 ~seed:5 () with
  | Ok _ -> Alcotest.fail "planted divergence went undetected"
  | Error f ->
      check Alcotest.bool "nonempty reproducer" true (f.H.shrunk <> []);
      check Alcotest.bool "shrunk to <= 10 updates" true
        (List.length f.H.shrunk <= 10);
      check Alcotest.bool "reproducer replays to a failure" true
        (H.replay_fails ~make f.H.shrunk);
      (* The failure arrives with the failing step's event log attached.
         For this planted bug the log is empty — the engine dropped the
         update on the floor — and that silence is exactly the diagnosis
         the trace is meant to surface. *)
      (match f.H.trace with
      | None -> Alcotest.fail "no trace attached to the reproducer"
      | Some snap ->
          check Alcotest.bool "dropped update leaves an empty event log" true
            (snap.Ig_obs.Tracer.entries = []));
      (* 1-minimality: removing any single update loses the failure. *)
      List.iteri
        (fun i _ ->
          let sub = List.filteri (fun j _ -> j <> i) f.H.shrunk in
          check Alcotest.bool
            (Printf.sprintf "1-minimal (drop %d)" i)
            false (H.replay_fails ~make sub))
        f.H.shrunk

(* ---- harness replay plumbing -------------------------------------------- *)

let test_clean_replay_passes () =
  let rng = Random.State.make [| 31 |] in
  let s = Option.get (Sc.by_name ~rng "scc") in
  (* A healthy engine must replay any recorded stream without failing. *)
  let st =
    St.create ~rng:(Random.State.make [| 77 |]) (Digraph.copy s.Sc.base)
  in
  let g = Digraph.copy s.Sc.base in
  let us = ref [] in
  for _ = 1 to 100 do
    let u = St.next st in
    ignore (Digraph.apply g u);
    us := u :: !us
  done;
  check Alcotest.bool "no false positives" false
    (H.replay_fails ~make:s.Sc.make (List.rev !us))

let () =
  Alcotest.run "ig_check"
    [
      ("differential fuzz", scenario_cases);
      ("differential fuzz csr", scenario_cases_csr);
      ("durable fuzz", durable_cases);
      ("durable fuzz csr", durable_cases_csr);
      ("malformed batch", List.map malformed_case malformed_engines);
      ("header round-trip", header_roundtrip_cases);
      ("malformed query", bad_args_cases);
      ( "stream driver",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "op mix" `Quick test_stream_mixes_ops;
        ] );
      ("ddmin", [ Alcotest.test_case "pure shrink" `Quick test_ddmin_pure ]);
      ( "mutation",
        [
          Alcotest.test_case "kdist corruption detected" `Quick
            test_mutation_kdist_detected;
          Alcotest.test_case "buggy engine shrunk" `Quick
            test_mutation_buggy_engine_shrinks;
        ] );
      ( "replay",
        [ Alcotest.test_case "clean replay" `Quick test_clean_replay_passes ]
      );
    ]
