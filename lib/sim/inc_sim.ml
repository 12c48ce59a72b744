module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer

type node = Digraph.node

type delta = { added : (int * node) list; removed : (int * node) list }

type t = {
  g : Digraph.t;
  p : Pattern.t;
  obs : Obs.t;
  trace : Tracer.t;
  r : Sim.relation;
  cnt : (node, int) Hashtbl.t array; (* per pattern edge id, for v ∈ r.(u) *)
  out_edges : (int * int) list array;
  in_edges : (int * int) list array;
  gained : (int * node, unit) Hashtbl.t;
  lost : (int * node, unit) Hashtbl.t;
  mutable n_pairs : int;
}

let graph t = t.g
let pattern t = t.p
let obs t = t.obs
let trace t = t.trace
let relation t = t.r
let mem t u v = Sim.mem t.r u v
let n_pairs t = t.n_pairs

let note_gain t u v =
  t.n_pairs <- t.n_pairs + 1;
  if Hashtbl.mem t.lost (u, v) then Hashtbl.remove t.lost (u, v)
  else Hashtbl.replace t.gained (u, v) ()

let note_lose t u v =
  t.n_pairs <- t.n_pairs - 1;
  if Hashtbl.mem t.gained (u, v) then Hashtbl.remove t.gained (u, v)
  else Hashtbl.replace t.lost (u, v) ()

let compare_pair (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let flush_delta t =
  (* Pair order: the delta lists are consumer-visible. *)
  let added = List.map fst (Obs.sorted_bindings ~compare:compare_pair t.gained) in
  let removed = List.map fst (Obs.sorted_bindings ~compare:compare_pair t.lost) in
  Obs.note_changed_output t.obs (List.length added + List.length removed);
  Hashtbl.reset t.gained;
  Hashtbl.reset t.lost;
  { added; removed }

let support_count t u' v = Sim.support_count t.g t.r u' v

(* Decremental cascade: remove pairs whose support hit zero. *)
let cascade t doomed =
  let stack = Stack.create () in
  List.iter (fun x -> Stack.push x stack) doomed;
  while not (Stack.is_empty stack) do
    let u, v = Stack.pop stack in
    Obs.incr t.obs Obs.K.nodes_visited;
    if Hashtbl.mem t.r.(u) v then begin
      Hashtbl.remove t.r.(u) v;
      List.iter (fun (e, _) -> Hashtbl.remove t.cnt.(e) v) t.out_edges.(u);
      note_lose t u v;
      Obs.incr t.obs Obs.K.aff;
      Obs.incr t.obs Obs.K.cert_rewrites;
      if Tracer.enabled t.trace then begin
        Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Sim_support_zero;
        Tracer.cert_rewrite t.trace ~node:v
          ~field:(Printf.sprintf "sim(%d)" u)
          ~before:"member" ~after:"removed"
      end;
      List.iter
        (fun (e, tp) ->
          (* Sorted: zero-support discovery order reaches the trace. *)
          Digraph.iter_pred_sorted
            (fun pnode ->
              Obs.incr t.obs Obs.K.edges_relaxed;
              if Hashtbl.mem t.r.(tp) pnode then begin
                match Hashtbl.find_opt t.cnt.(e) pnode with
                | Some c ->
                    Hashtbl.replace t.cnt.(e) pnode (c - 1);
                    if c - 1 = 0 then begin
                      Obs.incr t.obs Obs.K.queue_pushes;
                      Tracer.frontier_expand t.trace ~node:pnode;
                      Stack.push (tp, pnode) stack
                    end
                | None -> ()
              end)
            t.g v)
        t.in_edges.(u)
    end
  done

let delete_edge t a b =
  Obs.with_apply t.obs @@ fun () ->
  if Digraph.remove_edge t.g a b then begin
    Obs.note_changed_input t.obs 1;
    let doomed = ref [] in
    (* Pattern edges whose support ran through the deleted graph edge. *)
    Array.iteri
      (fun u ls ->
        List.iter
          (fun (e, u') ->
            if Hashtbl.mem t.r.(u') b && Hashtbl.mem t.r.(u) a then begin
              match Hashtbl.find_opt t.cnt.(e) a with
              | Some c ->
                  Hashtbl.replace t.cnt.(e) a (c - 1);
                  if c - 1 = 0 then doomed := (u, a) :: !doomed
              | None -> ()
            end)
          ls)
      t.out_edges;
    cascade t !doomed
  end

let insert_edge t a b =
  Obs.with_apply t.obs @@ fun () ->
  if Digraph.add_edge t.g a b then begin
    Obs.note_changed_input t.obs 1;
    (* Existing pairs gain support through the new edge. *)
    Array.iteri
      (fun u ls ->
        List.iter
          (fun (e, u') ->
            if Hashtbl.mem t.r.(u') b && Hashtbl.mem t.r.(u) a then
              Hashtbl.replace t.cnt.(e) a
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.cnt.(e) a)))
          ls)
      t.out_edges;
    (* Revalidation: a pair can flip into the greatest simulation only if
       its support dependency chain reaches the new edge, i.e. its graph
       node reaches [a]. Prune R ∪ those candidates; R itself survives
       (adding edges cannot invalidate a simulation), so the pruned result
       is exactly the new greatest simulation. *)
    let closure =
      Ig_graph.Traverse.reachable t.g ~dir:`Backward [ a ]
    in
    Obs.add t.obs Obs.K.nodes_visited (Hashtbl.length closure);
    let cands = Sim.candidates t.p t.g in
    let init =
      Array.mapi
        (fun u set ->
          let h = Hashtbl.copy t.r.(u) in
          (* Order-free: fills a membership set. *)
          (Hashtbl.iter [@lint.allow "D2"])
            (fun v () ->
              if Hashtbl.mem closure v && not (Hashtbl.mem h v) then
                Hashtbl.replace h v ())
            set;
          h)
        cands
    in
    let fresh = Sim.prune t.p t.g init in
    (* Merge additions and refresh counters incrementally. *)
    let additions = ref [] in
    Array.iteri
      (fun u set ->
        (* Sorted: revalidation order reaches the trace. *)
        List.iter
          (fun (v, ()) ->
            if not (Hashtbl.mem t.r.(u) v) then begin
              Hashtbl.replace t.r.(u) v ();
              note_gain t u v;
              Obs.incr t.obs Obs.K.aff;
              Obs.incr t.obs Obs.K.cert_rewrites;
              if Tracer.enabled t.trace then begin
                Tracer.aff_enter t.trace ~node:v ~rule:Tracer.Sim_revalidated;
                Tracer.cert_rewrite t.trace ~node:v
                  ~field:(Printf.sprintf "sim(%d)" u)
                  ~before:"absent" ~after:"member"
              end;
              additions := (u, v) :: !additions
            end)
          (Obs.sorted_bindings ~compare:Int.compare set))
      fresh;
    let added_set = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace added_set x ()) !additions;
    List.iter
      (fun (u, v) ->
        (* Own support counts, against the final relation — these already
           include support coming from other same-round additions. *)
        List.iter
          (fun (e, u') -> Hashtbl.replace t.cnt.(e) v (support_count t u' v))
          t.out_edges.(u);
        (* The new member also supports its pre-existing predecessors; the
           counts of same-round additions were computed fresh above and
           must not be bumped twice. *)
        List.iter
          (fun (e, tp) ->
            Digraph.iter_pred_sorted
              (fun pnode ->
                if
                  Hashtbl.mem t.r.(tp) pnode
                  && not (Hashtbl.mem added_set (tp, pnode))
                then
                  Hashtbl.replace t.cnt.(e) pnode
                    (1
                    + Option.value ~default:0
                        (Hashtbl.find_opt t.cnt.(e) pnode)))
              t.g v)
          t.in_edges.(u))
      !additions
  end

let apply_batch t updates =
  Obs.with_apply t.obs @@ fun () ->
  Digraph.check_batch t.g updates;
  Obs.with_span t.obs "sim.process" (fun () ->
      Tracer.with_span t.trace "sim.process" (fun () ->
          List.iter
        (fun up ->
          match up with
          | Digraph.Insert (u, v) -> insert_edge t u v
          | Digraph.Delete (u, v) -> delete_edge t u v)
            updates));
  flush_delta t

let init ?(obs = Obs.noop) ?(trace = Tracer.noop) g p =
  Digraph.instrument ~obs ~trace g;
  let r = Sim.run p g in
  let out_edges, in_edges = Sim.edge_index p in
  let cnt =
    Array.init (Pattern.n_edges p) (fun _ -> Hashtbl.create 32)
  in
  let t =
    {
      g;
      p;
      obs;
      trace;
      r;
      cnt;
      out_edges;
      in_edges;
      gained = Hashtbl.create 32;
      lost = Hashtbl.create 32;
      n_pairs = 0;
    }
  in
  Array.iteri
    (fun u set ->
      (* Order-free: counter setup commutes. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          t.n_pairs <- t.n_pairs + 1;
          List.iter
            (fun (e, u') -> Hashtbl.replace cnt.(e) v (support_count t u' v))
            out_edges.(u))
        set)
    r;
  t

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fresh = Sim.run t.p t.g in
  Array.iteri
    (fun u set ->
      if Hashtbl.length set <> Hashtbl.length t.r.(u) then
        fail "pattern node %d: %d members, expected %d" u
          (Hashtbl.length t.r.(u))
          (Hashtbl.length set);
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          if not (Hashtbl.mem t.r.(u) v) then fail "missing pair (%d, %d)" u v)
        set)
    fresh;
  (* Counter consistency. *)
  Array.iteri
    (fun u set ->
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          List.iter
            (fun (e, u') ->
              let real = support_count t u' v in
              match Hashtbl.find_opt t.cnt.(e) v with
              | Some c when c = real -> ()
              | Some c -> fail "cnt(%d, %d) = %d, expected %d" e v c real
              | None -> fail "cnt(%d, %d) missing" e v)
            t.out_edges.(u))
        set)
    t.r;
  let total = Array.fold_left (fun acc s -> acc + Hashtbl.length s) 0 t.r in
  if total <> t.n_pairs then fail "n_pairs %d, expected %d" t.n_pairs total

(* Canonical text dump of the simulation relation and support counters,
   hash-seed independent via sorted iteration. *)
let cert_snapshot t =
  let rel = Buffer.create 256 in
  Array.iteri
    (fun u h ->
      List.iter
        (fun (v, ()) -> Buffer.add_string rel (Printf.sprintf "u%d v%d\n" u v))
        (Obs.sorted_bindings ~compare:Int.compare h))
    t.r;
  let cnt = Buffer.create 256 in
  Array.iteri
    (fun e h ->
      List.iter
        (fun (v, c) ->
          Buffer.add_string cnt (Printf.sprintf "e%d v%d %d\n" e v c))
        (Obs.sorted_bindings ~compare:Int.compare h))
    t.cnt;
  [
    ("rel", Buffer.contents rel);
    ("cnt", Buffer.contents cnt);
    ("pairs", Printf.sprintf "%d\n" t.n_pairs);
  ]
