(* The graph store is the CSR + delta-overlay representation of [Csr];
   this module adds the batch vocabulary and the whole-graph walks. *)

include Csr

type backend = [ `Csr ]

let backend (_ : t) = `Csr
let backend_name `Csr = "csr"

let apply g = function
  | Insert (u, v) -> add_edge g u v
  | Delete (u, v) -> remove_edge g u v

let apply_batch g us = List.iter (fun u -> ignore (apply g u)) us

let check_batch g us =
  let check v =
    if not (mem_node g v) then
      invalid_arg (Printf.sprintf "Digraph: unknown node %d in batch" v)
  in
  List.iter (fun (Insert (u, v) | Delete (u, v)) -> check u; check v) us

let iter_nodes f g =
  for v = 0 to n_nodes g - 1 do f v done

let iter_edges f g =
  iter_nodes (fun u -> iter_succ_sorted (fun v -> f u v) g u) g

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let fold_nodes f g acc =
  let acc = ref acc in
  iter_nodes (fun v -> acc := f v !acc) g;
  !acc

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges@," (n_nodes g)
    (n_edges g);
  if n_nodes g <= 40 then begin
    iter_nodes
      (fun v -> Format.fprintf ppf "  %d:%s@," v (label_name g v))
      g;
    iter_edges (fun u v -> Format.fprintf ppf "  %d -> %d@," u v) g
  end;
  Format.fprintf ppf "@]"
