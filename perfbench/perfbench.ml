(* The repo benchmark driver. See README.md for the workloads, the metrics
   and what each layer metric should move.

   One process, one thread, one client in a closed loop: the driver hands
   an update batch to the library's public API, waits until every standing
   view has returned its ΔO, and only then draws the next batch. Each view
   is one incremental engine over its own Digraph.copy of the graph.

     perfbench --workload stream|durable|bulk --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The exit code is 0
   only when every check passed. *)

module Digraph = Ig_graph.Digraph
module Obs = Ig_obs.Obs
module Tracer = Ig_obs.Tracer
module Flight = Ig_obs.Flight
module Openmetrics = Ig_obs.Openmetrics
module Json = Ig_obs.Json
module Journal = Ig_journal.Journal
module Record = Ig_journal.Record
module Snapshot = Ig_journal.Snapshot
module Store = Ig_journal.Store
module W = Ig_workload

(* ---- workloads ------------------------------------------------------------ *)

type batch_size = Units of int | Share_of_edges of float

type workload = {
  name : string;
  scale : float;  (** dbpedia-like profile scale; 1.0 = 20k nodes *)
  classes : string list;
  batch : batch_size;
  durable : bool;
  warmup : int;  (** untimed rounds before the timed loop *)
  setup_reps : int;  (** set-ups per run; setup_s is their median *)
}

let all_classes = [ "kws"; "rpq"; "scc"; "iso"; "sim" ]

let workloads =
  [
    {
      name = "stream";
      scale = 0.25;
      classes = all_classes;
      batch = Units 10;
      durable = false;
      warmup = 20;
      setup_reps = 7;
    };
    {
      name = "durable";
      scale = 0.25;
      classes = all_classes;
      batch = Units 10;
      durable = true;
      warmup = 5;
      setup_reps = 7;
    };
    {
      name = "bulk";
      scale = 5.0;
      classes = [ "kws"; "rpq"; "scc" ];
      batch = Share_of_edges 0.02;
      durable = false;
      warmup = 2;
      setup_reps = 3;
    };
  ]

(* The graph and the standing queries are part of a workload's definition
   and come from this fixed seed; --seed draws the update stream (the
   held-out pool and every batch). *)
let structure_seed = 2017
let rng_of tag = Random.State.make [| structure_seed; Hashtbl.hash tag |]

(* Durable settings: a snapshot every [snapshot_every] batches, the
   newest [keep_snapshots] kept on disk (plus snapshot-0, the floor). *)
let snapshot_every = 5
let keep_snapshots = 2

(* ---- query choice (bench/main.ml's pick_* rules) ------------------------ *)

let rec pick k seed =
  if seed > 64 then failwith "perfbench: no suitable query found"
  else match k seed with Some q -> q | None -> pick k (seed + 1)

let pick_kws g =
  pick
    (fun seed ->
      let q = W.Queries.kws ~rng:(rng_of ("kws", 3, 2, seed)) g ~m:3 ~b:2 in
      if Ig_kws.Batch.run g q <> [] then Some q else None)
    0

let pick_rpq g =
  pick
    (fun seed ->
      let q = W.Queries.rpq ~rng:(rng_of ("rpq", 4, seed)) g ~size:4 in
      let n = List.length (Ig_rpq.Batch.run_query g q) in
      if n >= 1 && n < 200_000 then Some q else None)
    0

(* Dense, small-diameter patterns first, relaxed step by step. *)
let pick_pattern g ~nodes ~edges =
  let attempt ~min_edges ~max_diam seed =
    match
      W.Queries.iso ~rng:(rng_of ("iso", nodes, edges, seed)) g ~nodes ~edges
    with
    | None -> None
    | Some p ->
        if
          Ig_iso.Pattern.n_edges p < min_edges
          || Ig_iso.Pattern.diameter p > max_diam
        then None
        else
          let n = List.length (Ig_iso.Vf2.find_all g p) in
          if n > 0 && n < 100_000 then Some p else None
  in
  let rec first = function
    | [] -> failwith "perfbench: no suitable pattern found"
    | (min_edges, max_diam) :: rest -> (
        let rec go seed =
          if seed > 40 then None
          else
            match attempt ~min_edges ~max_diam seed with
            | Some p -> Some p
            | None -> go (seed + 1)
        in
        match go 0 with Some p -> p | None -> first rest)
  in
  first [ (min edges nodes, 3); (nodes - 1, 4); (1, max_int) ]

let pick_query g = function
  | "kws" -> Views.Kws (pick_kws g)
  | "rpq" -> Views.Rpq (pick_rpq g)
  | "scc" -> Views.Scc
  | "iso" -> Views.Iso (pick_pattern g ~nodes:4 ~edges:6)
  | "sim" -> Views.Sim (pick_pattern g ~nodes:3 ~edges:3)
  | c -> invalid_arg ("perfbench: unknown class " ^ c)

(* ---- statistics --------------------------------------------------------- *)

let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let a = Array.copy a in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median a = quantile a 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = ratio (sum a) (float_of_int (Array.length a))

(* ---- file helpers (all under the output directory) ---------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let file_size path = (Unix.stat path).Unix.st_size

(* ---- the run ------------------------------------------------------------ *)

(* Instrumentation of one view: a live registry and tracer, or none. *)
type sinks = { obs : Obs.t; trace : Tracer.t }

let noop_sinks = { obs = Obs.noop; trace = Tracer.noop }
let live_sinks () = { obs = Obs.create (); trace = Tracer.create () }

(* The cost counters read around each call of a view's instrumented copy. *)
let counter_keys =
  [
    ("aff", Obs.K.aff);
    ("cert_rewrites", Obs.K.cert_rewrites);
    ("nodes_visited", Obs.K.nodes_visited);
    ("edges_relaxed", Obs.K.edges_relaxed);
    ("changed_output", Obs.K.changed_output);
  ]

let counted counts obs f =
  let before = List.map (fun (_, k) -> Obs.counter obs k) counter_keys in
  let r = f () in
  List.iter2
    (fun (name, k) b ->
      let c = Hashtbl.find counts name in
      c := !c + (Obs.counter obs k - b))
    counter_keys before;
  r

exception Mismatch of string

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let ms s = 1000. *. s

let run wl ~seed ~seconds ~tracing ~out_dir =
  mkdir_p out_dir;
  let out = { attempted = 0; failed = 0; problems = [] } in
  let problem msg = out.problems <- msg :: out.problems in
  (* Inputs: the graph and queries of the workload, the stream of --seed. *)
  let g =
    W.Profiles.instantiate ~scale:wl.scale
      ~rng:(rng_of ("graph", wl.scale))
      W.Profiles.dbpedia_like
  in
  let queries = List.map (pick_query g) wl.classes in
  let batch =
    match wl.batch with
    | Units n -> n
    | Share_of_edges s ->
        2 * int_of_float (Float.round (s *. float_of_int (Digraph.n_edges g) /. 2.))
  in
  let churn =
    Churn.create ~rng:(Random.State.make [| seed |]) g ~batch
      ~pool:(max batch (Digraph.n_edges g / 100))
  in
  let shadow = Churn.shadow churn in
  let probe = ref (Probe.create ~tracing:false) in
  let time name f = Probe.time !probe name f in
  (* Only in the traced phase: feed the cost counters of whichever copy of
     a view (primary or twin) has the live registry. *)
  let counting = ref false in
  let counts =
    List.map
      (fun q ->
        let h = Hashtbl.create 8 in
        List.iter (fun (k, _) -> Hashtbl.replace h k (ref 0)) counter_keys;
        (Views.name q, h))
      queries
  in
  let apply_view ~prefix (v : Views.t) ups =
    let name = Views.name v.query in
    let call () = time (prefix ^ name) (fun () -> v.apply ups) in
    ignore
      (if !counting && Obs.enabled v.obs then
         counted (List.assoc name counts) v.obs call
       else call ())
  in
  let build_views ?(prefix = "init.") sinks g =
    List.map
      (fun q ->
        let g' = time "graph.copy" (fun () -> Digraph.copy g) in
        time (prefix ^ Views.name q) (fun () ->
            Views.make ~obs:sinks.obs ~trace:sinks.trace q g'))
      queries
  in
  (* The store's client is the composite of all views: each applies the
     journaled ops as one batch. *)
  let client (views : Views.t list) =
    {
      Store.apply =
        (fun ops ->
          let ups = Journal.updates_of_ops ops in
          List.iter (fun v -> apply_view ~prefix:"view." v ups) views);
      graph = (fun () -> (List.hd views).graph);
      answer_digest =
        (fun () ->
          Digest.to_hex
            (Digest.string
               (String.concat "\n"
                  (List.map (fun (v : Views.t) -> v.answer ()) views))));
      certs =
        (fun () ->
          List.concat_map
            (fun (v : Views.t) ->
              List.map
                (fun (k, s) -> (Views.name v.query ^ "." ^ k, s))
                (v.certs ()))
            views);
    }
  in
  let store_dir = Filename.concat out_dir "store" in
  let flight_dir = Filename.concat out_dir "flight" in
  (* Set-up: from the graph in memory to all views (and, on durable, the
     store and the flight recorder) ready. Repeated; the last one stays. *)
  let setup () =
    if wl.durable then begin
      rm_rf store_dir;
      rm_rf flight_dir;
      mkdir_p flight_dir
    end;
    time "setup" (fun () ->
        (* On durable one live registry and tracer serve the store, every
           view and the flight recorder: one process exporting its metrics. *)
        let sinks = if wl.durable then live_sinks () else noop_sinks in
        let views = build_views sinks shadow in
        let durable =
          if not wl.durable then None
          else
            let header =
              {
                Record.version = Record.format_version;
                cls = "perfbench-" ^ wl.name;
                bound = 0;
                qargs = List.map Views.describe queries;
                base_digest = Journal.graph_digest shadow;
              }
            in
            let store =
              time "journal.init" (fun () ->
                  Store.init ~obs:sinks.obs ~dir:store_dir ~header
                    ~client:(client views) ())
            in
            Some (store, Flight.create ~every:1 ~retain:4 ~dir:flight_dir ~obs:sinks.obs ())
        in
        (sinks, views, durable))
  in
  let rec setup_n i =
    let s = setup () in
    if i >= wl.setup_reps then s
    else begin
      (match s with _, _, Some (st, _) -> Store.close st | _ -> ());
      Gc.compact ();
      setup_n (i + 1)
    end
  in
  let sinks, views, durable = setup_n 1 in
  let setup_probe = !probe in
  let store = Option.map fst durable and flight = Option.map snd durable in
  (* One round: hand over the batch, wait for every view's ΔO. Outside the
     round: the generator's shadow graph, the twins, the check. *)
  let round_no = ref 0 in
  let twins = ref [] in
  let check_each_round = ref false in
  let check_views () =
    List.iter
      (fun (v : Views.t) ->
        let name = Views.name v.query in
        let want =
          Views.canon (time ("batch." ^ name) (fun () -> Views.recompute v.query shadow))
        in
        (* A dropped update often leaves the answer as it was; the engine's
           own graph shows it. *)
        List.iter
          (fun (c : Views.t) ->
            if
              c.query == v.query
              && (Digraph.n_edges c.graph <> Digraph.n_edges shadow
                 || not (String.equal (c.answer ()) want))
            then raise (Mismatch (if c == v then name else "twin " ^ name)))
          (v :: !twins))
      views
  in
  let prune_snapshots () =
    List.iter
      (fun seq ->
        if seq > 0 then Sys.remove (Snapshot.path ~dir:store_dir ~seq))
      (List.filteri
         (fun i _ -> i >= keep_snapshots)
         (List.rev (Snapshot.list_seqs ~dir:store_dir)))
  in
  let snapshot_bytes = ref 0 in
  let do_round () =
    incr round_no;
    Probe.set_round !probe !round_no;
    let ups = Churn.next churn in
    time "round" (fun () ->
        match (store, flight) with
        | Some st, Some fl ->
            ignore (time "journal" (fun () -> Store.do_batch st ups));
            time "obs.tick" (fun () -> Flight.tick fl);
            if Store.tip st mod snapshot_every = 0 then
              let path = time "journal.snapshot" (fun () -> Store.snapshot st) in
              snapshot_bytes := file_size path
        | _ -> List.iter (fun v -> apply_view ~prefix:"view." v ups) views);
    time "graph.apply" (fun () -> Churn.apply_shadow churn ups);
    List.iter (fun v -> apply_view ~prefix:"twin." v ups) !twins;
    if !check_each_round then time "check" check_views;
    if store <> None && Store.tip (Option.get store) mod snapshot_every = 0 then
      prune_snapshots ()
  in
  let failed_with e =
    out.failed <- out.failed + 1;
    problem
      (match e with
      | Mismatch v -> Printf.sprintf "round %d: %s differs from the batch answer or graph" !round_no v
      | e -> Printf.sprintf "round %d raised %s" !round_no (Printexc.to_string e))
  in
  let loop secs =
    let t0 = Obs.now_s () in
    let stop = ref false in
    while (not !stop) && Obs.now_s () -. t0 < secs do
      out.attempted <- out.attempted + 1;
      match do_round () with () -> () | exception e -> failed_with e; stop := true
    done
  in
  (* Warm-up rounds: caches filled, lazy state built; not measured. *)
  (try for _ = 1 to wl.warmup do do_round () done with e -> failed_with e);
  probe := Probe.create ~tracing:false;
  let untraced = ref !probe in
  if not tracing then loop seconds
  else begin
    (* A third of the time untraced, for trace.overhead; then the traced
       phase with twins and a check after every round. *)
    loop (seconds /. 3.);
    untraced := !probe;
    twins :=
      List.map
        (fun q ->
          let s = if wl.durable then noop_sinks else live_sinks () in
          Views.make ~obs:s.obs ~trace:s.trace q (Digraph.copy shadow))
        queries;
    counting := true;
    check_each_round := true;
    probe := Probe.create ~tracing:true;
    loop (seconds *. 2. /. 3.);
    counting := false;
    check_each_round := false
  end;
  let measured = !probe in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rounds_run = !round_no in
  probe := Probe.create ~tracing:false;
  (* Correctness gate, outside the timed window. *)
  let gate name f =
    match f () with
    | () -> ()
    | exception e ->
        out.failed <- out.failed + 1;
        problem
          (match e with
          | Mismatch v -> Printf.sprintf "end of run: %s differs from the batch answer or graph" v
          | Failure m -> Printf.sprintf "%s: %s" name m
          | e -> Printf.sprintf "%s raised %s" name (Printexc.to_string e))
  in
  gate "churn" (fun () -> Churn.check_stationary churn);
  gate "views" check_views;
  let recovery = ref [] in
  (match store with
  | None -> ()
  | Some st ->
      gate "recovery" (fun () ->
          (* Stop mid-cadence so recovery always replays the same number of
             batches past the newest snapshot. *)
          while Store.tip st mod snapshot_every <> snapshot_every / 2 do
            do_round ()
          done;
          let digest = Store.digest st in
          let answers = List.map (fun (v : Views.t) -> v.answer ()) views in
          Store.close st;
          probe := Probe.create ~tracing:false;
          let t0 = Obs.now_s () in
          let plan =
            match time "journal.plan" (fun () -> Store.plan ~dir:store_dir ()) with
            | Ok p -> p
            | Error e -> failwith e
          in
          let views' =
            build_views ~prefix:"recover." (live_sinks ()) (Snapshot.graph plan.Store.snapshot)
          in
          let st' =
            match
              time "journal.replay" (fun () ->
                  Store.attach ~dir:store_dir ~plan ~client:(client views') ())
            with
            | Ok s -> s
            | Error e -> failwith e
          in
          let recover_s = Obs.now_s () -. t0 in
          if not (String.equal (Store.digest st') digest) then
            failwith "recovered graph digest differs";
          List.iter2
            (fun (v : Views.t) a ->
              if not (String.equal (v.answer ()) a) then
                raise (Mismatch ("recovered " ^ Views.name v.query)))
            views' answers;
          Store.close st';
          let replayed = List.length plan.Store.replay in
          let p = !probe in
          recovery :=
            [
              ("recover_s", recover_s);
              ("plan_ms", ms (median (Probe.samples p "journal.plan")));
              ( "replay_ms_per_batch",
                ms (ratio (median (Probe.samples p "journal.replay")) (float_of_int replayed)) );
              ("replayed_batches", float_of_int replayed);
            ]));
  let samples = Probe.samples measured in
  let rounds = samples "round" in
  let n_updates = float_of_int (Array.length rounds * batch) in
  let per_update x = ratio x n_updates in
  let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576. in
  let end_to_end =
    [
      ("updates_per_s", "1/s", ratio n_updates (sum rounds));
      ("round_ms_p50", "ms", ms (median rounds));
      ("round_ms_p90", "ms", ms (quantile rounds 0.9));
    ]
    @ List.map
        (fun c -> (c ^ "_ms_p50", "ms", ms (median (samples ("view." ^ c)))))
        [ "kws"; "rpq"; "scc" ]
    @ [
        ("setup_s", "s", median (Probe.samples setup_probe "setup"));
        ("heap_peak_mb", "MB", words_to_mb top_heap_words);
      ]
  in
  let per_layer =
    if not tracing then []
    else begin
      let spans = Probe.spans measured in
      let self_t = Probe.self_of measured Probe.duration in
      let self_a = Probe.self_of measured (fun s -> s.Probe.alloc) in
      let select name f =
        let l = ref [] in
        Array.iteri (fun i (s : Probe.span) -> if s.name = name then l := f i :: !l) spans;
        Array.of_list (List.rev !l)
      in
      (* The trace is sound only if each round's self times add up to it. *)
      let root = Array.make (Array.length spans) (-1) in
      let covered = Array.make (Array.length spans) 0.0 in
      Array.iteri
        (fun i (s : Probe.span) ->
          root.(i) <- (if s.parent < 0 then i else root.(s.parent));
          covered.(root.(i)) <- covered.(root.(i)) +. self_t.(i))
        spans;
      Array.iteri
        (fun i (s : Probe.span) ->
          if s.parent < 0 && Float.abs (covered.(i) -. Probe.duration s) > 1e-6 then
            problem (Printf.sprintf "trace: self times of %s %d do not add up" s.name s.round))
        spans;
      (* Where a traced round's time goes: mean self time per round. *)
      let n_rounds = float_of_int (Array.length (samples "round")) in
      let layers = Hashtbl.create 16 in
      Array.iteri
        (fun i (s : Probe.span) ->
          if spans.(root.(i)).Probe.name = "round" then
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt layers s.name) in
            Hashtbl.replace layers s.name (prev +. self_t.(i)))
        spans;
      let round_mean = mean (samples "round") in
      List.iter
        (fun (name, total) ->
          Printf.printf "# self time per round: %-18s %9.3f ms  %5.1f%%\n" name
            (ms (total /. n_rounds))
            (100. *. ratio (total /. n_rounds) round_mean))
        (List.sort (fun (_, a) (_, b) -> Float.compare b a)
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []));
      let traced_rounds = samples "round" in
      let untraced_rounds = Probe.samples !untraced "round" in
      let ups r = ratio (float_of_int (Array.length r * batch)) (sum r) in
      let round_total = sum traced_rounds in
      let view c =
        let present = List.mem c wl.classes in
        let apply = samples ("view." ^ c) and twin = samples ("twin." ^ c) in
        let count k =
          match List.assoc_opt c counts with
          | Some h -> float_of_int !(Hashtbl.find h k)
          | None -> 0.0
        in
        let live, noop = if wl.durable then (apply, twin) else (twin, apply) in
        [
          (c ^ ".apply_ms_p50", "ms", ms (median apply));
          (c ^ ".apply_ms_p90", "ms", ms (quantile apply 0.9));
          (c ^ ".init_s", "s", median (Probe.samples setup_probe ("init." ^ c)));
          (c ^ ".busy_share", "ratio", ratio (sum apply) round_total);
          (c ^ ".aff_per_update", "count", per_update (count "aff"));
          (c ^ ".cert_rewrites_per_update", "count", per_update (count "cert_rewrites"));
          (c ^ ".nodes_visited_per_update", "count", per_update (count "nodes_visited"));
          (c ^ ".edges_relaxed_per_update", "count", per_update (count "edges_relaxed"));
          (c ^ ".useful_ratio", "ratio", ratio (count "changed_output") (count "aff"));
          ( c ^ ".alloc_words_per_update",
            "words",
            per_update (sum (select ("view." ^ c) (fun i -> spans.(i).Probe.alloc))) );
          (c ^ ".batch_ms_p50", "ms", ms (median (samples ("batch." ^ c))));
          (c ^ ".obs_tax", "ratio", if present then ratio (sum live) (sum noop) else 0.0);
        ]
      in
      let digest_s =
        median
          (Array.init 3 (fun _ ->
               let t0 = Obs.now_s () in
               ignore (Journal.graph_digest shadow);
               Obs.now_s () -. t0))
      in
      (* The registries a scrape would render: the shared one on durable,
         the twins' elsewhere. *)
      let registries =
        if wl.durable then [ sinks.obs ] else List.map (fun (v : Views.t) -> v.obs) !twins
      in
      let render () = List.fold_left (fun n o -> n + String.length (Openmetrics.render o)) 0 registries in
      let exposition_bytes = render () in
      let render_s =
        median
          (Array.init 3 (fun _ ->
               let t0 = Obs.now_s () in
               ignore (render ());
               Obs.now_s () -. t0))
      in
      let journal_bytes =
        match store with
        | Some st ->
            ratio
              (float_of_int (file_size (Store.journal_path ~dir:store_dir)))
              (float_of_int (Store.tip st * batch))
        | None -> 0.0
      in
      let rec_ k = Option.value ~default:0.0 (List.assoc_opt k !recovery) in
      List.concat_map view all_classes
      @ [
          ("graph.apply_ms_p50", "ms", ms (median (samples "graph.apply")));
          ("graph.copy_ms", "ms", ms (median (Probe.samples setup_probe "graph.copy")));
          ( "graph.base_heap_mb",
            "MB",
            words_to_mb (Obj.reachable_words (Obj.repr shadow)) );
          ("graph.nodes", "count", float_of_int (Digraph.n_nodes shadow));
          ("graph.edges", "count", float_of_int (Digraph.n_edges shadow));
          ("journal.append_ms_p50", "ms", ms (median (select "journal" (fun i -> self_t.(i)))));
          ("journal.digest_ms", "ms", ms digest_s);
          ( "journal.alloc_words_per_update",
            "words",
            per_update (sum (select "journal" (fun i -> self_a.(i)))) );
          ("journal.bytes_per_update", "bytes", journal_bytes);
          ("journal.snapshot_ms", "ms", ms (median (samples "journal.snapshot")));
          ("journal.snapshot_bytes", "bytes", float_of_int !snapshot_bytes);
          ("journal.plan_ms", "ms", rec_ "plan_ms");
          ("journal.replay_ms_per_batch", "ms", rec_ "replay_ms_per_batch");
          ("journal.replayed_batches", "count", rec_ "replayed_batches");
          ("journal.recover_s", "s", rec_ "recover_s");
          ("obs.tick_ms_p50", "ms", ms (median (samples "obs.tick")));
          ("obs.render_ms", "ms", ms render_s);
          ("obs.exposition_bytes", "bytes", float_of_int exposition_bytes);
          ("round.traced_ms_p50", "ms", ms (median traced_rounds));
          ("round.self_ms_p50", "ms", ms (median (select "round" (fun i -> self_t.(i)))));
          ("trace.overhead", "ratio", 1. -. ratio (ups traced_rounds) (ups untraced_rounds));
          ( "failed_ratio",
            "ratio",
            ratio (float_of_int out.failed) (float_of_int (max 1 out.attempted)) );
        ]
    end
  in
  if tracing then
    Probe.write_chrome measured
      ~path:(Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" wl.name seed))
      ~name:(Printf.sprintf "perfbench %s seed %d" wl.name seed);
  let int n = Json.Int n in
  let config =
    [
      ("workload", Json.Str wl.name);
      ("seed", int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool tracing);
      ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("backend", Json.Str (Digraph.backend_name (Digraph.backend shadow)));
      ("fsync", if wl.durable then Json.Bool true else Json.Null);
      ("snapshot_every", if wl.durable then int snapshot_every else Json.Null);
      ("scale", Json.Float wl.scale);
      ("nodes", int (Digraph.n_nodes shadow));
      ("edges", int (Digraph.n_edges shadow));
      ("batch", int batch);
      ("pool", int (Churn.pool_size churn));
      ("setup_reps", int wl.setup_reps);
      ("warmup_rounds", int wl.warmup);
      ("timed_rounds", int (Array.length rounds));
      ("rounds_total", int rounds_run);
      ( "views",
        Json.Obj (List.map (fun q -> (Views.name q, Json.Str (Views.describe q))) queries) );
    ]
  in
  (out, config, if tracing then per_layer else end_to_end)

(* ---- command line -------------------------------------------------------- *)

(* The durable store, the flight recorder ring and the trace files go
   under the build directory, inside the checkout. *)
let out_root =
  Filename.concat
    (Option.value ~default:".bench_build" (Sys.getenv_opt "CARGO_TARGET_DIR"))
    "perfbench-run"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let usage =
    "perfbench --workload stream|durable|bulk --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME stream, durable or bulk");
      ("--seed", Arg.Set_int seed, "N seed of the update stream");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some wl ->
      let out, config, metrics =
        run wl ~seed:!seed ~seconds:!seconds ~tracing:(!trace = 1)
          ~out_dir:(Filename.concat out_root wl.name)
      in
      print_endline (Json.to_string (Json.Obj [ ("config", Json.Obj config) ]));
      List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev out.problems);
      let correct =
        out.failed = 0 && out.problems = []
        && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool correct);
                ("attempted", Json.Int out.attempted);
                ("failed", Json.Int out.failed);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (name, unit_, v) ->
                         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit_) ]))
                       metrics) );
              ]));
      exit (if correct then 0 else 1)
