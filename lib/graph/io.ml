let write ppf g =
  Format.fprintf ppf "# incgraph v1: %d nodes %d edges@\n" (Digraph.n_nodes g)
    (Digraph.n_edges g);
  Digraph.iter_nodes
    (fun v -> Format.fprintf ppf "v %d %s@\n" v (Digraph.label_name g v))
    g;
  Digraph.iter_edges (fun u v -> Format.fprintf ppf "e %d %d@\n" u v) g

(* Deliberate artifact writer/reader: the graph text format. *)
let save path g =
  let oc = (open_out [@lint.allow "D3"]) path in
  let ppf = Format.formatter_of_out_channel oc in
  (try
     write ppf g;
     Format.pp_print_flush ppf ()
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

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
