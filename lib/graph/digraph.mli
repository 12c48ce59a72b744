(** Mutable node-labeled directed graphs.

    This is the substrate shared by every query class in the library: a
    directed graph [G = (V, E, l)] in the sense of the paper (Section 2),
    where nodes carry a label drawn from a finite alphabet and updates are
    edge insertions and deletions.

    Nodes are dense integer identifiers allocated by {!add_node}; labels are
    interned strings (see {!Interner}). Nodes are never removed (the
    paper's update model is edge-only; fresh nodes may arrive together
    with inserted edges).

    There is one representation: the flat compressed-sparse-row store of
    {!Csr}, whose adjacency lives in off-heap Bigarrays frozen at the last
    compaction, fronted by a small sorted delta overlay that absorbs edge
    churn. Adjacency is always visited in ascending node order — a merge
    of the base row with the overlay, sorted by construction — so every
    traversal is deterministic across hash seeds. Membership is a binary
    search of the base row plus the overlay; degrees are O(1). *)

type node = int
type label = Interner.symbol

type update =
  | Insert of node * node  (** [insert e] — add edge [(u, v)]. *)
  | Delete of node * node  (** [delete e] — remove edge [(u, v)]. *)

type t

(** {1 Construction} *)

val create : ?hint:int -> unit -> t
(** An empty graph. [hint] pre-sizes the label, degree and overlay tables
    for [hint] nodes; they never reallocate below [hint] nodes. *)

type backend = [ `Csr ]

val backend : t -> backend
(** Always [`Csr]; kept so reports can record the store they ran on. *)

val backend_name : backend -> string
(** ["csr"]. *)

val copy : t -> t
(** Deep copy (shares the interner). Preserves pending overlay deltas and
    shares only the frozen base arrays; the copy is fully independent. *)

val compact : t -> unit
(** Fold the delta overlay into fresh base arrays (semantically a no-op;
    O(n + m)). *)

val fingerprint : t -> string
(** O(1) identity of the graph's contents: two 63-bit hash lanes as 32
    hex characters, then [-n_nodes-n_edges]. Each lane sums one mixed
    term per node (id and label name) and per edge, kept current by every
    node addition and effective edge update, so two graphs with the same
    labelled nodes and edges agree whatever their history, overlay state
    or interner. Compaction leaves it unchanged. *)

val fingerprint_after : t -> update list -> string
(** [fingerprint_after g ups] is [fingerprint g] as it would read after
    applying [ups], without mutating or copying [g]. Precondition: every
    update is effective in order (see [Journal.effective_ops]). *)

val overlay_size : t -> int
(** Live overlay entries pending compaction; 0 right after {!compact}. *)

val instrument : obs:Ig_obs.Obs.t -> trace:Ig_obs.Tracer.t -> t -> unit
(** Attach instrumentation sinks to the storage layer: the overlay
    add/del sizes become gauges and compactions record latency and
    bytes-copied histograms plus a [Compaction] trace event. {!copy}
    resets the copy's sinks to noop so scratch and oracle copies never
    pollute the engine's registry. *)

val add_node : t -> string -> node
(** Add a fresh node with the given label string. *)

val add_node_sym : t -> label -> node
(** Add a fresh node with an already-interned label. *)

val add_edge : t -> node -> node -> bool
(** [add_edge g u v] inserts edge [(u,v)]. Returns [false] if it was already
    present (the graph is a simple digraph; parallel edges collapse).
    Self-loops are allowed. Raises [Invalid_argument] on an unknown node. *)

val remove_edge : t -> node -> node -> bool
(** Returns [false] if the edge was absent. *)

val apply : t -> update -> bool
(** Apply one unit update; [false] if it was a no-op. *)

val apply_batch : t -> update list -> unit

val check_batch : t -> update list -> unit
(** Raises [Invalid_argument] unless every endpoint of every update is an
    existing node. Touches nothing: engines call it before their first
    graph or certificate write, so a malformed batch leaves them exactly
    as they were. *)

(** {1 Labels} *)

val interner : t -> Interner.t
val intern_label : t -> string -> label
val label : t -> node -> label
val label_name : t -> node -> string

(** {1 Inspection} *)

val n_nodes : t -> int
val n_edges : t -> int
val mem_node : t -> node -> bool
val mem_edge : t -> node -> node -> bool
val out_degree : t -> node -> int
val in_degree : t -> node -> int

val iter_nodes : (node -> unit) -> t -> unit

val iter_succ_sorted : (node -> unit) -> t -> node -> unit
(** Successors in ascending node order: an O(d) merge of the base row
    with the overlay. *)

val iter_pred_sorted : (node -> unit) -> t -> node -> unit
(** Predecessors in ascending node order; see {!iter_succ_sorted}. *)

val iter_edges : (node -> node -> unit) -> t -> unit
(** All edges in lexicographic [(u, v)] order. *)

val succ_list : t -> node -> node list
(** Successors in ascending node order. *)

val pred_list : t -> node -> node list
(** Predecessors in ascending node order. *)

val edges : t -> (node * node) list
(** All edges in lexicographic [(u, v)] order. *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a

val nodes_with_label : t -> label -> node list
(** All nodes carrying the given label, most recently added first
    (maintained index; O(result)). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: node count, edge count, and the edge list for small
    graphs. *)
