module Digraph = Ig_graph.Digraph
module G = Ig_workload.Generate
module Q = Ig_workload.Queries

type t = {
  name : string;
  base : Digraph.t;
  focus : (Digraph.node * Digraph.node) list;
  make : unit -> Oracle.packed;
  qspec : string * int * string list;
}

(* A pattern rendered back to CLI/journal-header query arguments: labels
   in node order, then edges as "u-v". *)
let pattern_qargs p =
  List.init (Ig_iso.Pattern.n_nodes p) (Ig_iso.Pattern.label p)
  @ List.map
      (fun (u, v) -> Printf.sprintf "%d-%d" u v)
      (Ig_iso.Pattern.edges p)

type size = { nodes : int; edges : int; labels : int }

let default_size = { nodes = 28; edges = 80; labels = 4 }

let base_graph ~rng { nodes; edges; labels } =
  let g = G.uniform ~rng ~nodes ~edges ~labels () in
  (* A couple of planted chorded cycles so SCC merges/splits and long
     matching paths actually occur at this scale. *)
  G.plant_local_sccs ~rng g ~count:2 ~size:(max 3 (nodes / 6));
  g

let kws ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  let q = Q.kws ~rng base ~m:2 ~b:2 in
  {
    name = "kws";
    base;
    focus = [];
    make = (fun () -> Adapters.kws base q);
    qspec = ("kws", q.Ig_kws.Batch.bound, q.Ig_kws.Batch.keywords);
  }

let rpq ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  let q = Q.rpq ~rng base ~size:3 in
  {
    name = "rpq";
    base;
    focus = [];
    make = (fun () -> Adapters.rpq base q);
    qspec = ("rpq", 0, [ Ig_nfa.Regex.to_string q ]);
  }

let scc ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  {
    name = "scc";
    base;
    focus = [];
    make = (fun () -> Adapters.scc base);
    qspec = ("scc", 0, []);
  }

(* A pattern for Sim/ISO: sampled from the graph when possible (guaranteeing
   initial matches), else a hand-rolled 2-node chain over graph labels. *)
let pattern ~rng g ~labels =
  match Q.iso ~rng g ~nodes:3 ~edges:3 with
  | Some p -> p
  | None ->
      let l i = "l" ^ string_of_int (i mod labels) in
      Ig_iso.Pattern.create ~labels:[ l 0; l 1 ] ~edges:[ (0, 1) ]

let sim ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  let p = pattern ~rng base ~labels:size.labels in
  {
    name = "sim";
    base;
    focus = [];
    make = (fun () -> Adapters.sim base p);
    qspec = ("sim", 0, pattern_qargs p);
  }

let iso ~rng ?(size = default_size) () =
  let base = base_graph ~rng size in
  let p = pattern ~rng base ~labels:size.labels in
  {
    name = "iso";
    base;
    focus = [];
    make = (fun () -> Adapters.iso base p);
    qspec = ("iso", 0, pattern_qargs p);
  }

let edge_of = function
  | Digraph.Insert (u, v) | Digraph.Delete (u, v) -> (u, v)

let gadget ?(cycle = 4) () =
  let gd = Ig_theory.Gadget.make ~cycle in
  let base = gd.Ig_theory.Gadget.graph in
  let d1 = edge_of gd.Ig_theory.Gadget.delta1
  and d2 = edge_of gd.Ig_theory.Gadget.delta2 in
  (* Δ1 bridges the cycles, Δ2 reaches the sink; also keep the cycle edges
     at their endpoints in play so the stream can break and restore the
     cycles themselves. *)
  let near =
    match (gd.Ig_theory.Gadget.v_nodes, gd.Ig_theory.Gadget.u_nodes) with
    | v0 :: v1 :: _, u0 :: u1 :: _ -> [ (v0, v1); (u0, u1) ]
    | _ -> []
  in
  {
    name = "gadget";
    base;
    focus = d1 :: d2 :: near;
    make = (fun () -> Adapters.rpq base gd.Ig_theory.Gadget.query);
    qspec = ("rpq", 0, [ Ig_nfa.Regex.to_string gd.Ig_theory.Gadget.query ]);
  }

let all ~rng ?(size = default_size) () =
  [
    kws ~rng ~size ();
    rpq ~rng ~size ();
    scc ~rng ~size ();
    sim ~rng ~size ();
    iso ~rng ~size ();
    gadget ();
  ]

let by_name ~rng ?(size = default_size) = function
  | "kws" -> Some (kws ~rng ~size ())
  | "rpq" -> Some (rpq ~rng ~size ())
  | "scc" -> Some (scc ~rng ~size ())
  | "sim" -> Some (sim ~rng ~size ())
  | "iso" -> Some (iso ~rng ~size ())
  | "gadget" -> Some (gadget ())
  | _ -> None
