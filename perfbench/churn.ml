(* Structure-preserving churn.

   At set-up a pool of real edges is held out of the generated graph.
   Every batch deletes live edges into the pool and inserts pool edges
   back, half and half (rho = 1), so |E| and the pool size never move and
   live ∪ pool is always exactly the generated edge set: the graph keeps
   the generator's shape instead of drifting toward uniform random edges.

   A batch honours the paper's §4.2 model (see Ig_workload.Updates): no
   edge is both inserted and deleted in one batch. Deletions are drawn
   from edges live before the batch and the edges they free only join the
   pool after the insertions were drawn, so the two sides are disjoint.

   The generator keeps a shadow graph in step with the stream; it is the
   reference the correctness gate recomputes answers on. *)

module Digraph = Ig_graph.Digraph

type t = {
  rng : Random.State.t;
  shadow : Digraph.t;
  live : (int * int) array;  (** live edges *)
  pool : (int * int) array;  (** held-out edges *)
  half : int;  (** deletions (= insertions) per batch *)
  n_edges : int;  (** |E| of the shadow graph, held constant *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [g] becomes the base graph: the pool is removed from it. *)
let create ~rng g ~batch ~pool =
  let half = batch / 2 in
  if half < 1 then invalid_arg "Churn.create: batch must be at least 2";
  let all = Array.of_list (Digraph.edges g) in
  shuffle rng all;
  let n_pool = max pool half in
  if n_pool + half > Array.length all then
    invalid_arg "Churn.create: graph too small for this batch and pool";
  let pool = Array.sub all 0 n_pool in
  Array.iter (fun (u, v) -> ignore (Digraph.remove_edge g u v)) pool;
  let live = Array.sub all n_pool (Array.length all - n_pool) in
  {
    rng;
    shadow = g;
    live;
    pool;
    half;
    n_edges = Digraph.n_edges g;
  }

let shadow t = t.shadow
let pool_size t = Array.length t.pool

(* Partial Fisher-Yates: move [k] uniform picks of a.(0..n-1) to its tail
   a.(n-k..n-1) and return them. *)
let take rng a n k =
  Array.init k (fun i ->
      let last = n - 1 - i in
      let j = Random.State.int rng (last + 1) in
      let x = a.(j) in
      a.(j) <- a.(last);
      a.(last) <- x;
      x)

let next t =
  let n_live = Array.length t.live and n_pool = Array.length t.pool in
  let dels = take t.rng t.live n_live t.half in
  let inss = take t.rng t.pool n_pool t.half in
  (* The deleted edges take the drawn pool slots and the drawn pool edges
     the freed live slots: both arrays keep their sizes. *)
  Array.blit dels 0 t.pool (n_pool - t.half) t.half;
  Array.blit inss 0 t.live (n_live - t.half) t.half;
  let batch =
    Array.append
      (Array.map (fun (u, v) -> Digraph.Delete (u, v)) dels)
      (Array.map (fun (u, v) -> Digraph.Insert (u, v)) inss)
  in
  shuffle t.rng batch;
  Array.to_list batch

(* Keep the shadow graph in step; check that the stream stays stationary. *)
let apply_shadow t batch =
  Digraph.apply_batch t.shadow batch;
  if Digraph.n_edges t.shadow <> t.n_edges then
    failwith
      (Printf.sprintf "churn: |E| drifted from %d to %d" t.n_edges
         (Digraph.n_edges t.shadow))

(* The full stationarity check: live ∪ pool is the generated edge set,
   the two are disjoint, and the shadow graph holds exactly the live
   edges. O(|E| log |E|); run outside the timed window. *)
let check_stationary t =
  let live = Array.copy t.live in
  Array.sort compare live;
  let shadow = Array.of_list (Digraph.edges t.shadow) in
  if live <> shadow then failwith "churn: shadow graph differs from live set";
  Array.iter
    (fun (u, v) ->
      if Digraph.mem_edge t.shadow u v then
        failwith (Printf.sprintf "churn: pool edge %d->%d is live" u v))
    t.pool;
  if Array.length live <> t.n_edges then failwith "churn: |E| drifted"
