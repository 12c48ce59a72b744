(* Differential battery for the graph store: the CSR + delta-overlay
   [Digraph] and a small pure reference model (a label array plus an
   ordered edge set) driven through identical op sequences — distilled
   from the unit tests in test_graph.ml plus seeded random streams — with
   every observable view (sorted adjacency, degrees, labels, edge
   membership, operation return values) compared byte for byte after
   every op, including immediately around forced [Digraph.compact]
   points. After every op the O(1) fingerprint must also equal that of
   the same contents built another way — from the model with edges
   inserted in reverse order, and by a text round-trip — and copies must
   move their fingerprints independently.

   The qcheck properties pin the overlay laws: compact is a semantic
   no-op and idempotent; arbitrary interleavings of insert / delete /
   absent-delete / duplicate-insert / compact agree with a batch-built
   graph and with the model; and copy of an un-compacted graph is deep —
   pending deltas are preserved and the copy is independent of the
   original; and [fingerprint_after] projects exactly the fingerprint that
   applying an effective update list yields. *)

open Ig_graph

let check = Alcotest.check

(* ---- op language ---------------------------------------------------------- *)

type op =
  | Add_node of string
  | Ins of int * int (* endpoints reduced modulo the current node count *)
  | Del of int * int
  | Compact

let pp_op = function
  | Add_node l -> Printf.sprintf "node %s" l
  | Ins (u, v) -> Printf.sprintf "+%d-%d" u v
  | Del (u, v) -> Printf.sprintf "-%d-%d" u v
  | Compact -> "compact"

(* Apply one op and render its result, so return values (new-edge flags,
   node ids) are part of the differential comparison, not just the state. *)
let apply_op g op =
  let n = Digraph.n_nodes g in
  match op with
  | Add_node l -> Printf.sprintf "node=%d" (Digraph.add_node g l)
  | Ins (u, v) ->
      if n = 0 then "skip"
      else Printf.sprintf "ins=%b" (Digraph.add_edge g (u mod n) (v mod n))
  | Del (u, v) ->
      if n = 0 then "skip"
      else Printf.sprintf "del=%b" (Digraph.remove_edge g (u mod n) (v mod n))
  | Compact ->
      Digraph.compact g;
      "compacted"

(* ---- the reference model ------------------------------------------------- *)

module Edges = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | o -> o
end)

(* Node [v] carries [labels.(v)]; [edges] is the edge relation, ordered
   lexicographically, so filtering it yields sorted adjacency. *)
type model = { labels : string array; edges : Edges.t }

let empty_model = { labels = [||]; edges = Edges.empty }

let model_op m op =
  let n = Array.length m.labels in
  match op with
  | Add_node l ->
      ( { m with labels = Array.append m.labels [| l |] },
        Printf.sprintf "node=%d" n )
  | (Ins _ | Del _) when n = 0 -> (m, "skip")
  | Ins (u, v) ->
      let e = (u mod n, v mod n) in
      ( { m with edges = Edges.add e m.edges },
        Printf.sprintf "ins=%b" (not (Edges.mem e m.edges)) )
  | Del (u, v) ->
      let e = (u mod n, v mod n) in
      ( { m with edges = Edges.remove e m.edges },
        Printf.sprintf "del=%b" (Edges.mem e m.edges) )
  | Compact -> (m, "compacted")

(* ---- the observable view --------------------------------------------------- *)

(* Everything a client can see: node/edge counts, per-node label, degrees
   and sorted adjacency in both directions, the label index
   (most-recent-first), and — via an explicit membership sweep — the edge
   relation, which on the graph exercises the base binary search plus
   add/tombstone overlay paths independently of the merge iterators. *)
type obs = {
  n : int;
  m : int;
  label : int -> string;
  out_degree : int -> int;
  in_degree : int -> int;
  succ : int -> int list;
  pred : int -> int list;
  with_label : int -> int list;  (** nodes sharing node [v]'s label *)
  mem : int -> int -> bool;
}

let graph_obs g =
  let collect iter v =
    let acc = ref [] in
    iter (fun w -> acc := w :: !acc) g v;
    List.rev !acc
  in
  {
    n = Digraph.n_nodes g;
    m = Digraph.n_edges g;
    label = Digraph.label_name g;
    out_degree = Digraph.out_degree g;
    in_degree = Digraph.in_degree g;
    succ = collect Digraph.iter_succ_sorted;
    pred = collect Digraph.iter_pred_sorted;
    with_label = (fun v -> Digraph.nodes_with_label g (Digraph.label g v));
    mem = Digraph.mem_edge g;
  }

let model_obs md =
  let adj keep proj =
    Edges.fold (fun e acc -> if keep e then proj e :: acc else acc) md.edges []
    |> List.rev
  in
  let succ v = adj (fun (u, _) -> u = v) snd
  and pred v = adj (fun (_, w) -> w = v) fst in
  {
    n = Array.length md.labels;
    m = Edges.cardinal md.edges;
    label = (fun v -> md.labels.(v));
    out_degree = (fun v -> List.length (succ v));
    in_degree = (fun v -> List.length (pred v));
    succ;
    pred;
    with_label =
      (fun v ->
        List.rev
          (List.filter
             (fun w -> String.equal md.labels.(w) md.labels.(v))
             (List.init (Array.length md.labels) Fun.id)));
    mem = (fun u v -> Edges.mem (u, v) md.edges);
  }

(* Rendered canonically, so a divergence prints as a readable diff. *)
let render o =
  let buf = Buffer.create 512 in
  let show l = String.concat "," (List.map string_of_int l) in
  Buffer.add_string buf (Printf.sprintf "n=%d m=%d\n" o.n o.m);
  for v = 0 to o.n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d:%s out=%d in=%d s=[%s] p=[%s]\n" v (o.label v)
         (o.out_degree v) (o.in_degree v) (show (o.succ v)) (show (o.pred v)))
  done;
  let seen = Hashtbl.create 8 in
  for v = 0 to o.n - 1 do
    let l = o.label v in
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      Buffer.add_string buf
        (Printf.sprintf "L:%s=[%s]\n" l (show (o.with_label v)))
    end
  done;
  if o.n <= 48 then begin
    Buffer.add_string buf "mem=";
    for u = 0 to o.n - 1 do
      for v = 0 to o.n - 1 do
        if o.mem u v then Buffer.add_string buf (Printf.sprintf "%d-%d;" u v)
      done
    done;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let view g = render (graph_obs g)
let model_view md = render (model_obs md)

(* ---- fingerprint battery --------------------------------------------------- *)

(* The model's contents built with a different history: nodes in id
   order, edges in reverse lexicographic order, never compacted. *)
let model_graph md =
  let g = Digraph.create () in
  Array.iter (fun l -> ignore (Digraph.add_node g l)) md.labels;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    (List.rev (Edges.elements md.edges));
  g

let toggle g md (u, v) =
  if Edges.mem (u, v) md.edges then begin
    ignore (Digraph.remove_edge g u v);
    { md with edges = Edges.remove (u, v) md.edges }
  end
  else begin
    ignore (Digraph.add_edge g u v);
    { md with edges = Edges.add (u, v) md.edges }
  end

let check_fingerprint ~ctx g md =
  let fp = Digraph.fingerprint g in
  let expect what got =
    if got <> fp then
      Alcotest.failf "%s: fingerprint %s, but %s gives %s" ctx fp what got
  in
  expect "the model rebuilt in reverse edge order"
    (Digraph.fingerprint (model_graph md));
  expect "a text round-trip"
    (Digraph.fingerprint (Io.of_string (Io.to_string g)));
  let n = Array.length md.labels in
  if n > 0 then begin
    (* Two copies, each toggling a different edge: every graph's
       fingerprint follows its own contents only. *)
    let c1 = Digraph.copy g and c2 = Digraph.copy g in
    let md1 = toggle c1 md (n - 1, 0) in
    expect "the original after a copy moved" (Digraph.fingerprint g);
    expect "an untouched copy" (Digraph.fingerprint c2);
    let fp1 = Digraph.fingerprint c1 in
    if fp1 = fp || fp1 <> Digraph.fingerprint (model_graph md1) then
      Alcotest.failf "%s: toggled copy fingerprint %s (original %s)" ctx fp1 fp;
    let md2 = toggle c2 md (0, n - 1) in
    if Digraph.fingerprint c1 <> fp1 then
      Alcotest.failf "%s: a copy moved when its sibling did" ctx;
    if Digraph.fingerprint c2 <> Digraph.fingerprint (model_graph md2) then
      Alcotest.failf "%s: second copy disagrees with its model" ctx;
    expect "the original after both copies moved" (Digraph.fingerprint g)
  end

(* ---- the differential runner ----------------------------------------------- *)

(* Drive the graph and the model through [ops]; with [compact_every = k >
   0] the graph is additionally compacted every k ops, so views are
   compared both right after and right before forced compaction points.
   Returns the graph. *)
let run_diff ?(compact_every = 0) ops =
  let g = Digraph.create () and md = ref empty_model in
  List.iteri
    (fun i op ->
      let rg = apply_op g op in
      let md', rm = model_op !md op in
      md := md';
      if rg <> rm then
        Alcotest.failf "op %d (%s): results diverge: model %s, graph %s" i
          (pp_op op) rm rg;
      if compact_every > 0 && (i + 1) mod compact_every = 0 then
        Digraph.compact g;
      let vm = model_view md' and vg = view g in
      if vm <> vg then
        Alcotest.failf "op %d (%s): views diverge\n--- model\n%s--- graph\n%s"
          i (pp_op op) vm vg;
      check_fingerprint ~ctx:(Printf.sprintf "op %d (%s)" i (pp_op op)) g md')
    ops;
  g

(* ---- distilled unit sequences ---------------------------------------------- *)

(* The Digraph cases of test_graph.ml, replayed as op streams: basics
   (duplicate insert, shared labels), remove (absent delete), degrees,
   self loops, and the apply-batch sequence. *)
let distilled =
  [
    ( "basics",
      [ Add_node "a"; Add_node "b"; Add_node "a"; Ins (0, 1); Ins (0, 1) ] );
    ( "remove",
      [
        Add_node "x"; Add_node "x"; Add_node "x";
        Ins (0, 1); Ins (1, 2);
        Del (0, 1); Del (0, 1); Del (2, 0);
      ] );
    ( "degrees",
      [
        Add_node "a"; Add_node "b"; Add_node "c";
        Ins (0, 1); Ins (0, 2); Ins (1, 2);
      ] );
    ("self loop", [ Add_node "a"; Ins (0, 0); Del (0, 0); Ins (0, 0) ]);
    ( "apply batch",
      [
        Add_node "x"; Add_node "x"; Add_node "x";
        Ins (0, 1); Ins (1, 2);
        Del (0, 1); Ins (2, 0); Ins (2, 0);
      ] );
    ( "tombstone undelete",
      (* Exercise base-row tombstones: build, compact, delete from base,
         re-insert (undelete), delete again, around more compacts. *)
      [
        Add_node "a"; Add_node "b"; Add_node "c"; Add_node "d";
        Ins (0, 1); Ins (0, 2); Ins (0, 3); Ins (1, 2); Ins (2, 3);
        Compact;
        Del (0, 2); Ins (0, 2); Del (0, 2); Del (0, 1);
        Compact; Compact;
        Ins (0, 1); Ins (3, 0);
      ] );
  ]

let distilled_cases =
  List.map
    (fun (name, ops) ->
      Alcotest.test_case name `Quick (fun () ->
          ignore (run_diff ops);
          ignore (run_diff ~compact_every:1 ops);
          ignore (run_diff ~compact_every:3 ops)))
    distilled

(* ---- seeded random streams -------------------------------------------------- *)

let random_ops ~seed ~steps =
  let rng = Random.State.make [| 0xba; seed |] in
  let labels = [| "a"; "b"; "c" |] in
  List.init steps (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 10 then Add_node labels.(Random.State.int rng 3)
      else if r < 55 then
        Ins (Random.State.int rng 64, Random.State.int rng 64)
      else if r < 95 then
        Del (Random.State.int rng 64, Random.State.int rng 64)
      else Compact)

let random_cases =
  List.concat_map
    (fun seed ->
      List.map
        (fun compact_every ->
          Alcotest.test_case
            (Printf.sprintf "seed %d, compact every %d" seed compact_every)
            `Quick
            (fun () ->
              let ops = Add_node "a" :: random_ops ~seed ~steps:400 in
              ignore (run_diff ~compact_every ops)))
        [ 0; 7 ])
    [ 1; 2; 3 ]

(* ---- copy / hint regressions ------------------------------------------------ *)

(* Copy of a graph with a non-empty overlay must preserve the pending
   deltas, and the copy must be fully independent of the original (both
   directions). *)
let test_copy_preserves_overlay () =
  let ops = Add_node "a" :: random_ops ~seed:11 ~steps:300 in
  let gc = run_diff ops in
  (* Grow a fresh overlay on top of whatever state the stream left. *)
  let n = Digraph.n_nodes gc in
  for i = 0 to 9 do
    ignore (Digraph.add_edge gc (i mod n) ((i * 7 + 1) mod n))
  done;
  check Alcotest.bool "overlay pending" true (Digraph.overlay_size gc > 0);
  let v0 = view gc in
  let c = Digraph.copy gc in
  check Alcotest.string "copy sees pending deltas" v0 (view c);
  (* Mutate the original: the copy must not move. *)
  ignore (Digraph.add_edge gc (n - 1) 0);
  ignore (Digraph.remove_edge gc 0 ((0 * 7 + 1) mod n));
  Digraph.compact gc;
  check Alcotest.string "copy independent of original" v0 (view c);
  (* Mutate and compact the copy: same view modulo the mutation, and the
     original's new state is untouched. *)
  let vg = view gc in
  Digraph.compact c;
  check Alcotest.string "compacting the copy is a no-op" v0 (view c);
  ignore (Digraph.remove_edge c 0 1);
  check Alcotest.string "original independent of copy" vg (view gc)

let test_hint_presizes () =
  (* ~hint pre-sizes internal storage without changing any observable
     state; over- and under-shooting must both be safe. *)
  List.iter
    (fun hint ->
      let g = Digraph.create ~hint () in
      check Alcotest.int "empty" 0 (Digraph.n_nodes g);
      for _ = 1 to 40 do
        ignore (Digraph.add_node g "x")
      done;
      for i = 0 to 38 do
        ignore (Digraph.add_edge g i (i + 1))
      done;
      check Alcotest.int "nodes" 40 (Digraph.n_nodes g);
      check Alcotest.int "edges" 39 (Digraph.n_edges g);
      check Alcotest.bool "member" true (Digraph.mem_edge g 0 1))
    [ 0; 1; 8; 100 ]

(* The fingerprint hashes label names, not interner symbols: the same
   contents over interners that numbered the labels differently agree,
   and relabelling a node moves the fingerprint. *)
let test_fingerprint_labels () =
  let build ?(pre_intern = []) labels =
    let g = Digraph.create () in
    List.iter (fun l -> ignore (Digraph.intern_label g l)) pre_intern;
    List.iter (fun l -> ignore (Digraph.add_node g l)) labels;
    ignore (Digraph.add_edge g 0 1);
    g
  in
  let g = build [ "a"; "b" ] in
  let fp = Digraph.fingerprint g in
  check Alcotest.string "symbols numbered differently" fp
    (Digraph.fingerprint (build ~pre_intern:[ "q"; "b" ] [ "a"; "b" ]));
  check Alcotest.string "text round-trip" fp
    (Digraph.fingerprint (Io.of_string (Io.to_string g)));
  check Alcotest.bool "labels swapped" false
    (fp = Digraph.fingerprint (build [ "b"; "a" ]));
  check Alcotest.bool "one label changed" false
    (fp = Digraph.fingerprint (build [ "a"; "c" ]))

(* ---- qcheck properties ------------------------------------------------------ *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Add_node [| "a"; "b"; "c" |].(i)) (int_bound 2));
        (8, map2 (fun u v -> Ins (u, v)) (int_bound 40) (int_bound 40));
        (5, map2 (fun u v -> Del (u, v)) (int_bound 40) (int_bound 40));
        (1, return Compact);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(
      map (fun ops -> Add_node "a" :: ops) (list_size (int_bound 150) gen_op))

let graph_of ops =
  let g = Digraph.create () in
  List.iter (fun op -> ignore (apply_op g op)) ops;
  g

let model_of ops =
  List.fold_left (fun md op -> fst (model_op md op)) empty_model ops

(* Build a semantically equal graph from scratch in one pass: nodes in id
   order, surviving edges in sorted order, one final compact. *)
let batch_rebuild g =
  let b = Digraph.create ~hint:(Digraph.n_nodes g) () in
  for v = 0 to Digraph.n_nodes g - 1 do
    ignore (Digraph.add_node b (Digraph.label_name g v))
  done;
  Digraph.iter_edges (fun u v -> ignore (Digraph.add_edge b u v)) g;
  Digraph.compact b;
  b

let prop_compact_noop =
  QCheck.Test.make ~count:150 ~name:"compact is a semantic no-op, idempotent"
    arb_ops (fun ops ->
      let g = graph_of ops in
      let v0 = view g in
      Digraph.compact g;
      let v1 = view g in
      let drained = Digraph.overlay_size g = 0 in
      Digraph.compact g;
      v0 = v1 && drained && view g = v1)

let prop_interleavings_agree =
  QCheck.Test.make ~count:150
    ~name:"arbitrary op interleavings agree with a batch-built graph"
    arb_ops (fun ops ->
      let g = graph_of ops in
      view g = view (batch_rebuild g) && view g = model_view (model_of ops))

let prop_copy_deep =
  QCheck.Test.make ~count:150
    ~name:"copy of an un-compacted csr graph is deep and independent"
    arb_ops (fun ops ->
      let g = graph_of ops in
      let v0 = view g in
      let c = Digraph.copy g in
      (* Diverge both sides, then check neither saw the other's writes. *)
      ignore (apply_op g (Ins (1, 3)));
      Digraph.compact g;
      let copy_intact = view c = v0 in
      let vg = view g in
      ignore (apply_op c (Del (0, 0)));
      Digraph.compact c;
      copy_intact && view g = vg)

(* An arbitrary graph plus candidate edge updates; the property keeps the
   ones that are effective in order, found by applying them to a copy. *)
let arb_graph_updates =
  let gen_edge_op =
    QCheck.Gen.(
      map3
        (fun ins u v -> if ins then Ins (u, v) else Del (u, v))
        bool (int_bound 40) (int_bound 40))
  in
  let show ops = String.concat "; " (List.map pp_op ops) in
  QCheck.make
    ~print:(fun (ops, cands) -> show ops ^ " | " ^ show cands)
    QCheck.Gen.(
      pair
        (map (fun ops -> Add_node "a" :: ops) (list_size (int_bound 150) gen_op))
        (list_size (int_bound 30) gen_edge_op))

let prop_fingerprint_after =
  QCheck.Test.make ~count:150
    ~name:"fingerprint_after g ups = fingerprint of ups applied to a copy"
    arb_graph_updates (fun (ops, cands) ->
      let g = graph_of ops in
      let n = Digraph.n_nodes g in
      let c = Digraph.copy g in
      let update = function
        | Ins (u, v) -> Digraph.Insert (u mod n, v mod n)
        | Del (u, v) -> Digraph.Delete (u mod n, v mod n)
        | Add_node _ | Compact -> invalid_arg "not an edge op"
      in
      let effective = List.filter (Digraph.apply c) (List.map update cands) in
      let before = Digraph.fingerprint g and v0 = view g in
      Digraph.fingerprint_after g effective = Digraph.fingerprint c
      && Digraph.fingerprint g = before
      && view g = v0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ig_store"
    [
      ("distilled sequences", distilled_cases);
      ("random streams", random_cases);
      ( "copy/hint/convert",
        [
          Alcotest.test_case "copy preserves pending deltas" `Quick
            test_copy_preserves_overlay;
          Alcotest.test_case "hint pre-sizes safely" `Quick test_hint_presizes;
          Alcotest.test_case "fingerprint hashes label names" `Quick
            test_fingerprint_labels;
        ] );
      ( "overlay laws",
        qsuite
          [
            prop_compact_noop;
            prop_interleavings_agree;
            prop_copy_deep;
            prop_fingerprint_after;
          ] );
    ]
