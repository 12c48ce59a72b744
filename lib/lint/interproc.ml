(* Phase 2 of the cross-module analyzer: interprocedural rules over
   per-module summaries (Summary).

   D6  no unregistered module-scope mutable state reachable from the
       engine, graph or journal modules. Sharded multicore serving
       (ROADMAP: OCaml 5 domains) needs every engine instance to be
       shard-local by construction; a hidden global ref or hash table
       would be shared by all domains. The Obs registry (lib/obs) is
       the one sanctioned home for cross-cutting state, and a singleton
       can be explicitly accepted with [[@@lint.allow "D6"]]. Census
       findings in lib/ modules *not* reachable from those roots are
       reported as warnings — visible in the census, not yet blocking.

   D7  all graph mutation flows through the Digraph/Csr entry points.
       Direct writes to adjacency state (Bigarray row pokes, container
       mutators reaching succ/pred/by_label/adj projections or values
       built by Digraph.*/Csr.* calls) outside lib/graph would bypass
       the CSR overlay invariants (add∩base=∅, del⊆base).

   D8  every span region is exception-safe: a bare [*.span_begin] whose
       enclosing binding does not also guard a [span_end] inside
       [Fun.protect ~finally] is flagged — a raising rewrite rule would
       leak the open span and poison every later span_end (and the
       telemetry snapshots) with a misnested stack.

   The rules are scoped by path: D6/D8 apply to lib/ outside lib/obs
   (whose registry and combinators are the sanctioned implementations),
   D7 to lib/ outside lib/graph (where direct representation writes are
   the graph store's own business). Summaries for other paths (fixtures,
   bin/) produce no findings, so the extraction API can be exercised on
   synthetic inputs. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

let in_lib path = String.starts_with ~prefix:"lib/" path

let d6_roots =
  [
    "lib/graph/"; "lib/iso/"; "lib/kws/"; "lib/rpq/"; "lib/scc/";
    "lib/sim/"; "lib/journal/";
  ]

let d6_root path = List.exists (fun d -> String.starts_with ~prefix:d path) d6_roots
let sanctioned path = String.starts_with ~prefix:"lib/obs/" path
let in_graph path = String.starts_with ~prefix:"lib/graph/" path

(* Resolve a referenced module name to summarized paths. Same-directory
   modules win (lib/kws's [Batch] is lib/kws/batch.ml, not lib/rpq's);
   otherwise every summarized module of that name is an edge — for
   reachability, over-approximating is the safe direction. *)
let resolve_index summaries =
  List.fold_left
    (fun acc (s : Summary.t) ->
      SM.update s.Summary.module_name
        (fun l -> Some (s.Summary.path :: Option.value ~default:[] l))
        acc)
    SM.empty summaries

let resolve index ~from name =
  match SM.find_opt name index with
  | None -> []
  | Some paths -> (
      let dir = Filename.dirname from in
      match List.filter (fun p -> Filename.dirname p = dir) paths with
      | [] -> paths
      | same_dir -> same_dir)

(* Transitive dependency closure of the D6 root modules. *)
let reachable summaries =
  let index = resolve_index summaries in
  let by_path =
    List.fold_left
      (fun acc (s : Summary.t) -> SM.add s.Summary.path s acc)
      SM.empty summaries
  in
  let seen = ref SS.empty in
  let rec visit path =
    if not (SS.mem path !seen) then begin
      seen := SS.add path !seen;
      match SM.find_opt path by_path with
      | None -> ()
      | Some s ->
          List.iter
            (fun dep ->
              List.iter visit (resolve index ~from:path dep))
            s.Summary.deps
    end
  in
  List.iter
    (fun (s : Summary.t) -> if d6_root s.Summary.path then visit s.Summary.path)
    summaries;
  !seen

let analyze summaries =
  let reach = reachable summaries in
  let diags = ref [] in
  let suppressed = ref 0 in
  let emit rule file line col severity message =
    diags :=
      { Diag.rule; file; line; col; severity; message } :: !diags
  in
  List.iter
    (fun (s : Summary.t) ->
      let path = s.Summary.path in
      (* D6: module-scope mutable-state census. *)
      if in_lib path && not (sanctioned path) then
        List.iter
          (fun (g : Summary.global) ->
            if g.Summary.g_allowed then incr suppressed
            else if SS.mem path reach then
              emit "D6" path g.Summary.g_line g.Summary.g_col Diag.Error
                (Printf.sprintf
                   "module-scope mutable state %s (%s) is reachable from the \
                    engine/graph/journal modules: shard-local engines forbid \
                    hidden globals — own it in an engine record, register \
                    it with the Obs registry, or annotate the singleton \
                    [@@lint.allow \"D6\"]"
                   g.Summary.g_name g.Summary.g_kind)
            else
              emit "D6" path g.Summary.g_line g.Summary.g_col Diag.Warning
                (Printf.sprintf
                   "module-scope mutable state %s (%s) in lib/ (census): not \
                    reachable from the engines today, but a future dependency \
                    would make it a shared-shard hazard"
                   g.Summary.g_name g.Summary.g_kind))
          s.Summary.globals;
      (* D7: graph mutation outside the graph store. *)
      if in_lib path && not (in_graph path) then
        List.iter
          (fun (m : Summary.graph_mutation) ->
            if m.Summary.m_allowed then incr suppressed
            else
              emit "D7" path m.Summary.m_line m.Summary.m_col Diag.Error
                (Printf.sprintf
                   "direct %s on %s bypasses the Digraph/Csr graph store; \
                    graph mutation must flow through the lib/graph entry \
                    points (or annotate a sanctioned site with [@lint.allow \
                    \"D7\"])"
                   m.Summary.m_prim m.Summary.m_target))
          s.Summary.graph_mutations;
      (* D8: exception-safe span regions. *)
      if in_lib path then
        List.iter
          (fun (sp : Summary.span_site) ->
            if sp.Summary.s_protected then ()
            else if sp.Summary.s_allowed then incr suppressed
            else
              emit "D8" path sp.Summary.s_line sp.Summary.s_col Diag.Error
                (Printf.sprintf
                   "%s in %s opens a span that an exception can leak; wrap \
                    the region in Obs.with_span/with_apply or Fun.protect \
                    ~finally a span_end"
                   sp.Summary.s_fn sp.Summary.s_in))
          s.Summary.spans)
    summaries;
  (List.sort Diag.compare_diagnostic !diags, !suppressed)

(* ---- module-level effect/dependency graph ------------------------------------ *)

let node_id path =
  let p =
    match String.length path with
    | n when n > 4 && String.sub path 0 4 = "lib/" ->
        String.sub path 4 (n - 4)
    | _ -> path
  in
  String.map
    (fun c -> if c = '/' || c = '.' || c = '-' then '_' else c)
    (Filename.remove_extension p)

let worst_effect (s : Summary.t) =
  List.fold_left
    (fun acc (x : Summary.export) ->
      Summary.effect_join acc x.Summary.x_effect)
    Summary.Pure s.Summary.exports

let effect_color = function
  | Summary.Pure -> "#e8f5e9"
  | Summary.Mutates_argument -> "#e3f2fd"
  | Summary.Does_io -> "#fff3e0"
  | Summary.Mutates_global -> "#ffebee"

(* Graphviz rendering of the lib/ modules: one box per module, filled by
   the worst effect among its exports, double-bordered when the module
   owns census state; one edge per resolved intra-repo dependency.
   Deterministic: nodes and edges are emitted in sorted order. *)
let effect_graph_dot summaries =
  let libs =
    List.filter (fun (s : Summary.t) -> in_lib s.Summary.path) summaries
    |> List.sort (fun (a : Summary.t) (b : Summary.t) ->
           String.compare a.Summary.path b.Summary.path)
  in
  let index = resolve_index libs in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph lint_effects {\n";
  Buffer.add_string b "  rankdir=LR;\n";
  Buffer.add_string b
    "  node [shape=box, style=filled, fontname=\"monospace\"];\n";
  List.iter
    (fun (s : Summary.t) ->
      let w = worst_effect s in
      let peripheries =
        if s.Summary.globals <> [] then ", peripheries=2" else ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "  \"%s\" [label=\"%s\\n%s\\n%s\", fillcolor=\"%s\"%s];\n"
           (node_id s.Summary.path) s.Summary.module_name
           (Filename.dirname s.Summary.path)
           (Summary.effect_name w) (effect_color w) peripheries))
    libs;
  List.iter
    (fun (s : Summary.t) ->
      let targets =
        List.concat_map
          (fun dep -> resolve index ~from:s.Summary.path dep)
          s.Summary.deps
        |> List.filter (fun p -> p <> s.Summary.path)
        |> List.sort_uniq String.compare
      in
      List.iter
        (fun target ->
          Buffer.add_string b
            (Printf.sprintf "  \"%s\" -> \"%s\";\n"
               (node_id s.Summary.path) (node_id target)))
        targets)
    libs;
  Buffer.add_string b "}\n";
  Buffer.contents b
