let to_string g =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  (* ~16 bytes per node line and ~12 per edge line at small ids. *)
  let b = Buffer.create (64 + (16 * n) + (12 * m)) in
  let int i = Buffer.add_string b (string_of_int i) in
  Buffer.add_string b "# incgraph v1: ";
  int n;
  Buffer.add_string b " nodes ";
  int m;
  Buffer.add_string b " edges\n";
  Digraph.iter_nodes
    (fun v ->
      Buffer.add_string b "v ";
      int v;
      Buffer.add_char b ' ';
      Buffer.add_string b (Digraph.label_name g v);
      Buffer.add_char b '\n')
    g;
  Digraph.iter_edges
    (fun u v ->
      Buffer.add_string b "e ";
      int u;
      Buffer.add_char b ' ';
      int v;
      Buffer.add_char b '\n')
    g;
  Buffer.contents b

let write ppf g = Format.pp_print_string ppf (to_string g)

(* Deliberate artifact writer/reader: the graph text format. *)
let save path g =
  (Out_channel.with_open_bin [@lint.allow "D3"]) path (fun oc ->
      Out_channel.output_string oc (to_string g))

let parse_lines lines =
  let g = Digraph.create () in
  let ids = Hashtbl.create 64 in
  let lineno = ref 0 in
  let fail msg = failwith (Printf.sprintf "Io.read: line %d: %s" !lineno msg) in
  let node_of ext =
    match Hashtbl.find_opt ids ext with
    | Some v -> v
    | None -> fail (Printf.sprintf "undeclared node %d" ext)
  in
  Seq.iter
    (fun line ->
      incr lineno;
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line with
        | [ "v"; ext; label ] ->
            let ext =
              try int_of_string ext with _ -> fail "bad node id"
            in
            if Hashtbl.mem ids ext then fail "duplicate node id";
            Hashtbl.replace ids ext (Digraph.add_node g label)
        | [ "e"; u; v ] ->
            let u = try int_of_string u with _ -> fail "bad edge source" in
            let v = try int_of_string v with _ -> fail "bad edge target" in
            ignore (Digraph.add_edge g (node_of u) (node_of v))
        | _ -> fail "unrecognized record")
    lines;
  (* A graph built edge-by-edge carries a residual overlay; fold it in so
     loads hand back a fully flat base. *)
  Digraph.compact g;
  g

let read ic =
  let rec lines () =
    match In_channel.input_line ic with
    | None -> Seq.Nil
    | Some l -> Seq.Cons (l, lines)
  in
  parse_lines lines

let load path =
  let ic = (open_in [@lint.allow "D3"]) path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read ic)

let of_string s =
  parse_lines (List.to_seq (String.split_on_char '\n' s))
