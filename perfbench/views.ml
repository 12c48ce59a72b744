(* Standing views: one incremental engine per query class, each over its
   own copy of the graph, behind one face the driver can loop over.
   Answers are compared in the canonical forms of Ig_check.Adapters, so a
   view agrees with its batch algorithm iff the two strings are equal. *)

module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module A = Ig_check.Adapters

type query =
  | Kws of Ig_kws.Batch.query
  | Rpq of Ig_nfa.Regex.t
  | Scc
  | Iso of Ig_iso.Pattern.t
  | Sim of Ig_iso.Pattern.t

let name = function
  | Kws _ -> "kws"
  | Rpq _ -> "rpq"
  | Scc -> "scc"
  | Iso _ -> "iso"
  | Sim _ -> "sim"

let describe = function
  | Kws q ->
      Printf.sprintf "keywords=[%s] bound=%d"
        (String.concat "," q.Ig_kws.Batch.keywords)
        q.Ig_kws.Batch.bound
  | Rpq r -> Ig_nfa.Regex.to_string r
  | Scc -> "strongly connected components"
  | Iso p | Sim p ->
      Printf.sprintf "|VQ|=%d |EQ|=%d" (Ig_iso.Pattern.n_nodes p)
        (Ig_iso.Pattern.n_edges p)

type t = {
  query : query;
  graph : Digraph.t;  (** the engine's own graph *)
  obs : Obs.t;
  apply : Digraph.update list -> int;  (** apply a batch; |ΔO| *)
  answer : unit -> string;  (** canonical current answer *)
  certs : unit -> (string * string) list;  (** SNAPSHOTTABLE dump *)
}

(* The view takes ownership of [g]. *)
let make ?(obs = Obs.noop) ?(trace = Tracer.noop) query g =
  let view apply answer certs = { query; graph = g; obs; apply; answer; certs } in
  match query with
  | Kws q ->
      let module I = Ig_kws.Inc_kws in
      let e = I.init ~obs ~trace g q in
      view
        (fun ups ->
          let d = I.apply_batch e ups in
          List.length d.I.added + List.length d.I.removed)
        (fun () -> A.canon_nodes (I.match_roots e))
        (fun () -> I.cert_snapshot e)
  | Rpq r ->
      let module I = Ig_rpq.Inc_rpq in
      let e = I.create ~obs ~trace g r in
      view
        (fun ups ->
          let d = I.apply_batch e ups in
          List.length d.I.added + List.length d.I.removed)
        (fun () -> A.canon_pairs (I.matches e))
        (fun () -> I.cert_snapshot e)
  | Scc ->
      let module I = Ig_scc.Inc_scc in
      let e = I.init ~obs ~trace g in
      view
        (fun ups ->
          let d = I.apply_batch e ups in
          List.length d.I.added + List.length d.I.removed)
        (fun () -> A.canon_comps (I.components e))
        (fun () -> I.cert_snapshot e)
  | Iso p ->
      let module I = Ig_iso.Inc_iso in
      let e = I.init ~obs ~trace g p in
      view
        (fun ups ->
          let d = I.apply_batch e ups in
          List.length d.I.added + List.length d.I.removed)
        (fun () -> A.canon_mappings p (I.matches e))
        (fun () -> I.cert_snapshot e)
  | Sim p ->
      let module I = Ig_sim.Inc_sim in
      let e = I.init ~obs ~trace g p in
      view
        (fun ups ->
          let d = I.apply_batch e ups in
          List.length d.I.added + List.length d.I.removed)
        (fun () -> A.canon_pairs (Ig_sim.Sim.pairs (I.relation e)))
        (fun () -> I.cert_snapshot e)

(* The batch algorithm (BLINKS / RPQNFA / Tarjan / VF2 / SimFix) on [g].
   Returns the raw answer; [canon] turns it into the comparable string, so
   the two can be timed apart. *)
type batch_answer =
  | Nodes of int list
  | Pairs of (int * int) list
  | Comps of int list list
  | Maps of Ig_iso.Pattern.t * Ig_iso.Vf2.mapping list

let recompute query g =
  match query with
  | Kws q -> Nodes (Ig_kws.Batch.run g q)
  | Rpq r -> Pairs (Ig_rpq.Batch.run_query g r)
  | Scc -> Comps (Ig_scc.Tarjan.scc g)
  | Iso p -> Maps (p, Ig_iso.Vf2.find_all g p)
  | Sim p -> Pairs (Ig_sim.Sim.pairs (Ig_sim.Sim.run p g))

let canon = function
  | Nodes ns -> A.canon_nodes ns
  | Pairs ps -> A.canon_pairs ps
  | Comps cs -> A.canon_comps cs
  | Maps (p, ms) -> A.canon_mappings p ms
