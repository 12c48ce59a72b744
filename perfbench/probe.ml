(* Measurement from outside the library: every call into a layer is timed
   on the monotonic clock the library's own probes use. Untraced, a probe
   only appends the duration to the named sample series. Traced, it also
   records a span (name, start, end, parent, round id) and the minor words
   the call allocated; spans stay in memory until the run ends.

   A span's self time is its duration minus the part its child spans
   cover. Children never overlap (the driver is single-threaded), so the
   self times of a span tree add up exactly to the duration of its root. *)

module Obs = Ig_obs.Obs
module Json = Ig_obs.Json

type span = {
  name : string;
  round : int;
  parent : int;  (** index of the enclosing span; -1 for a root *)
  t0 : int;  (** ns, monotonic *)
  mutable t1 : int;
  mutable alloc : float;  (** minor words allocated inside the span *)
}

type t = {
  tracing : bool;
  samples : (string, float list ref) Hashtbl.t;  (** seconds, newest first *)
  mutable spans : span array;
  mutable n_spans : int;
  mutable open_ : int;  (** innermost open span; -1 when none *)
  mutable round : int;
}

let create ~tracing =
  {
    tracing;
    samples = Hashtbl.create 16;
    spans = [||];
    n_spans = 0;
    open_ = -1;
    round = 0;
  }

let now () = Int64.to_int (Obs.now_ns ())
let set_round t r = t.round <- r

let add_sample t name s =
  match Hashtbl.find_opt t.samples name with
  | Some l -> l := s :: !l
  | None -> Hashtbl.replace t.samples name (ref [ s ])

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some l -> Array.of_list (List.rev !l)
  | None -> [||]

let push t sp =
  if t.n_spans = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n_spans)) sp in
    Array.blit t.spans 0 bigger 0 t.n_spans;
    t.spans <- bigger
  end;
  t.spans.(t.n_spans) <- sp;
  t.n_spans <- t.n_spans + 1;
  t.n_spans - 1

(* Time [f] as one call into layer [name]. *)
let time t name f =
  if not t.tracing then begin
    let t0 = now () in
    let r = f () in
    add_sample t name (float_of_int (now () - t0) *. 1e-9);
    r
  end
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let i =
      push t { name; round = t.round; parent = t.open_; t0; t1 = t0; alloc = 0. }
    in
    t.open_ <- i;
    let close () =
      let sp = t.spans.(i) in
      sp.t1 <- now ();
      sp.alloc <- Gc.minor_words () -. w0;
      t.open_ <- sp.parent;
      add_sample t name (float_of_int (sp.t1 - sp.t0) *. 1e-9)
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let spans t = Array.sub t.spans 0 t.n_spans

let duration s = float_of_int (s.t1 - s.t0) *. 1e-9

(* The self part of [measure] (duration, allocation) of every span:
   its own value minus its children's, indexed like [spans]. *)
let self_of t measure =
  let sp = spans t in
  let self = Array.map measure sp in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. measure s)
    sp;
  self

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
   complete ("X") event per span, timestamps in microseconds from the
   first span. *)
let write_chrome t ~path ~name =
  let sp = spans t in
  let base = if Array.length sp = 0 then 0 else sp.(0).t0 in
  let us ns = float_of_int ns /. 1e3 in
  let events =
    Array.to_list
      (Array.mapi
         (fun i s ->
           Json.Obj
             [
               ("name", Json.Str s.name);
               ("cat", Json.Str "perfbench");
               ("ph", Json.Str "X");
               ("ts", Json.Float (us (s.t0 - base)));
               ("dur", Json.Float (us (s.t1 - s.t0)));
               ("pid", Json.Int 1);
               ("tid", Json.Int 1);
               ( "args",
                 Json.Obj
                   [
                     ("id", Json.Int i);
                     ("parent", Json.Int s.parent);
                     ("round", Json.Int s.round);
                     ("alloc_words", Json.Float s.alloc);
                   ] );
             ])
         sp)
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.Arr events);
        ("displayTimeUnit", Json.Str "ms");
        ("otherData", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc))
