module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

(* ---- canonical answer forms -------------------------------------------- *)

let canon_nodes ns =
  let ns = List.sort_uniq compare ns in
  "{" ^ String.concat " " (List.map string_of_int ns) ^ "}"

let canon_pairs ps =
  let ps = List.sort_uniq compare ps in
  "{"
  ^ String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) ps)
  ^ "}"

let canon_comps cs =
  let cs = List.sort compare (List.map (List.sort compare) cs) in
  String.concat ""
    (List.map
       (fun c -> "[" ^ String.concat " " (List.map string_of_int c) ^ "]")
       cs)

(* A match subgraph: sorted image nodes plus sorted image edges (the VF2
   canon), printed. *)
let canon_mappings p ms =
  let cs = List.sort_uniq compare (List.map (Ig_iso.Vf2.canon_of p) ms) in
  String.concat ""
    (List.map
       (fun (ns, es) ->
         Printf.sprintf "[%s|%s]"
           (String.concat " " (List.map string_of_int ns))
           (String.concat " "
              (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es)))
       cs)

(* ---- queries and their batch algorithms -------------------------------- *)

type query =
  | Kws of Ig_kws.Batch.query
  | Rpq of Ig_nfa.Regex.t
  | Scc
  | Sim of Ig_iso.Pattern.t
  | Iso of Ig_iso.Pattern.t

type batch_answer =
  | Nodes of int list
  | Pairs of (int * int) list
  | Comps of int list list
  | Maps of Ig_iso.Pattern.t * Ig_iso.Vf2.mapping list
  | Relation of Ig_sim.Sim.relation

let batch query g =
  match query with
  | Kws q -> fun g -> Nodes (Ig_kws.Batch.run g q)
  | Rpq r ->
      let a = Ig_nfa.Nfa.compile (Digraph.interner g) r in
      fun g -> Pairs (Ig_rpq.Batch.run g a)
  | Scc -> fun g -> Comps (Ig_scc.Tarjan.scc g)
  | Sim p -> fun g -> Relation (Ig_sim.Sim.run p g)
  | Iso p -> fun g -> Maps (p, Ig_iso.Vf2.find_all g p)

let canon = function
  | Nodes ns -> canon_nodes ns
  | Pairs ps -> canon_pairs ps
  | Comps cs -> canon_comps cs
  | Maps (p, ms) -> canon_mappings p ms
  | Relation r -> canon_pairs (Ig_sim.Sim.pairs r)

let size = function
  | Nodes ns -> List.length ns
  | Pairs ps -> List.length ps
  | Comps cs -> List.length cs
  | Maps (_, ms) -> List.length ms
  | Relation r -> List.length (Ig_sim.Sim.pairs r)

let summary a =
  match a with
  | Nodes _ -> Printf.sprintf "%d match roots" (size a)
  | Pairs _ -> Printf.sprintf "%d match pairs" (size a)
  | Comps cs ->
      Printf.sprintf "%d components (largest %d)" (size a)
        (List.fold_left (fun m c -> max m (List.length c)) 0 cs)
  | Maps _ -> Printf.sprintf "%d matches" (size a)
  | Relation _ -> Printf.sprintf "%d relation pairs" (size a)

type names = { engine : string; baseline : string; items : string }

let names = function
  | Kws _ -> { engine = "IncKWS"; baseline = "BLINKS"; items = "roots" }
  | Rpq _ -> { engine = "IncRPQ"; baseline = "RPQNFA"; items = "pairs" }
  | Scc -> { engine = "IncSCC"; baseline = "Tarjan"; items = "components" }
  | Sim _ -> { engine = "IncSim"; baseline = "SimFix"; items = "pairs" }
  | Iso _ -> { engine = "IncISO"; baseline = "VF2"; items = "matches" }

(* ---- command-line form --------------------------------------------------- *)

(* A pattern as query arguments: labels in node order, then edges "u-v". *)
let pattern_args p =
  List.init (Ig_iso.Pattern.n_nodes p) (Ig_iso.Pattern.label p)
  @ List.map
      (fun (u, v) -> Printf.sprintf "%d-%d" u v)
      (Ig_iso.Pattern.edges p)

let to_args = function
  | Kws q -> ("kws", q.Ig_kws.Batch.bound, q.Ig_kws.Batch.keywords)
  | Rpq r -> ("rpq", 0, [ Ig_nfa.Regex.to_string r ])
  | Scc -> ("scc", 0, [])
  | Sim p -> ("sim", 0, pattern_args p)
  | Iso p -> ("iso", 0, pattern_args p)

let header query base =
  let cls, bound, qargs = to_args query in
  {
    Ig_journal.Record.version = Ig_journal.Record.format_version;
    cls;
    bound;
    qargs;
    base_digest = Ig_journal.Journal.graph_digest base;
  }

let pattern_of_args cls args =
  let labels, edges =
    List.partition (fun s -> not (String.contains s '-')) args
  in
  let edge s =
    match List.map int_of_string_opt (String.split_on_char '-' s) with
    | [ Some u; Some v ] -> Some (u, v)
    | _ -> None
  in
  let parsed = List.filter_map edge edges in
  if List.compare_lengths parsed edges <> 0 then
    Error (cls ^ " edges look like 0-1 1-2")
  else
    match Ig_iso.Pattern.create ~labels ~edges:parsed with
    | p -> Ok p
    | exception Invalid_argument e -> Error (cls ^ ": " ^ e)

let of_args ~cls ~bound ~args =
  match (cls, args) with
  | "scc", [] -> Ok Scc
  | "scc", _ -> Error "scc takes no query arguments"
  | "kws", (_ :: _ as keywords) -> Ok (Kws { Ig_kws.Batch.keywords; bound })
  | "kws", [] -> Error "kws needs keyword arguments"
  | "rpq", [ expr ] -> (
      match Ig_nfa.Regex.parse expr with
      | Ok r -> Ok (Rpq r)
      | Error e -> Error ("bad regex: " ^ e))
  | "rpq", _ -> Error "rpq needs exactly one regex argument"
  | ("sim" | "iso"), [] -> Error (cls ^ " needs labels and edges")
  | "sim", _ -> Result.map (fun p -> Sim p) (pattern_of_args cls args)
  | "iso", _ -> Result.map (fun p -> Iso p) (pattern_of_args cls args)
  | _ -> Error (Printf.sprintf "unknown query class %S" cls)

(* ---- oracles ------------------------------------------------------------- *)

(* The uniform record over one engine. [current] reads the engine's answer
   in the batch algorithm's shape, so both sides canonicalize alike. *)
let oracle query ~graph ~ins ~del ~delta ~current ~check_invariants ~obs
    ~trace ~cert_snapshot =
  let cls, _, _ = to_args query in
  {
    Oracle.name = cls;
    graph;
    apply =
      (function
      | Digraph.Insert (u, v) -> ins u v | Digraph.Delete (u, v) -> del u v);
    apply_batch = delta;
    size = (fun () -> size (current ()));
    answer = (fun () -> canon (current ()));
    recompute = (fun () -> canon (batch query graph graph));
    check_invariants;
    obs;
    trace;
    cert_snapshot;
  }

let delta_sizes added removed = (List.length added, List.length removed)

let of_kws e =
  let module I = Ig_kws.Inc_kws in
  oracle (Kws (I.query e)) ~graph:(I.graph e) ~ins:(I.insert_edge e)
    ~del:(I.delete_edge e)
    ~delta:(fun us ->
      let d = I.apply_batch e us in
      delta_sizes d.I.added d.I.removed)
    ~current:(fun () -> Nodes (I.match_roots e))
    ~check_invariants:(fun () -> I.check_invariants e)
    ~obs:(I.obs e) ~trace:(I.trace e)
    ~cert_snapshot:(fun () -> I.cert_snapshot e)

let make ?(trace = Tracer.create ()) query g =
  let graph = Digraph.copy g and obs = Obs.create () in
  let oracle = oracle query ~graph ~obs ~trace in
  match query with
  | Kws q -> of_kws (Ig_kws.Inc_kws.init ~obs ~trace graph q)
  | Rpq r ->
      let module I = Ig_rpq.Inc_rpq in
      let e = I.create ~obs ~trace graph r in
      oracle ~ins:(I.insert_edge e) ~del:(I.delete_edge e)
        ~delta:(fun us ->
          let d = I.apply_batch e us in
          delta_sizes d.I.added d.I.removed)
        ~current:(fun () -> Pairs (I.matches e))
        ~check_invariants:(fun () -> I.check_invariants e)
        ~cert_snapshot:(fun () -> I.cert_snapshot e)
  | Scc ->
      let module I = Ig_scc.Inc_scc in
      let e = I.init ~obs ~trace graph in
      oracle ~ins:(I.insert_edge e) ~del:(I.delete_edge e)
        ~delta:(fun us ->
          let d = I.apply_batch e us in
          delta_sizes d.I.added d.I.removed)
        ~current:(fun () -> Comps (I.components e))
        ~check_invariants:(fun () -> I.check_invariants e)
        ~cert_snapshot:(fun () -> I.cert_snapshot e)
  | Sim p ->
      let module I = Ig_sim.Inc_sim in
      let e = I.init ~obs ~trace graph p in
      oracle ~ins:(I.insert_edge e) ~del:(I.delete_edge e)
        ~delta:(fun us ->
          let d = I.apply_batch e us in
          delta_sizes d.I.added d.I.removed)
        ~current:(fun () -> Relation (I.relation e))
        ~check_invariants:(fun () -> I.check_invariants e)
        ~cert_snapshot:(fun () -> I.cert_snapshot e)
  | Iso p ->
      let module I = Ig_iso.Inc_iso in
      let e = I.init ~obs ~trace graph p in
      oracle ~ins:(I.insert_edge e) ~del:(I.delete_edge e)
        ~delta:(fun us ->
          let d = I.apply_batch e us in
          delta_sizes d.I.added d.I.removed)
        ~current:(fun () -> Maps (p, I.matches e))
        ~check_invariants:(fun () -> I.check_invariants e)
        ~cert_snapshot:(fun () -> I.cert_snapshot e)

let client (o : Oracle.t) =
  {
    Ig_journal.Store.apply =
      (fun ops ->
        List.iter o.Oracle.apply (Ig_journal.Journal.updates_of_ops ops));
    graph = (fun () -> o.Oracle.graph);
    answer_digest =
      (fun () -> Ig_journal.Journal.digest_hex (o.Oracle.answer ()));
    certs = o.Oracle.cert_snapshot;
  }
