(** Flat CSR adjacency with a sorted delta overlay — the graph store.

    Successor and predecessor adjacency as compressed-sparse-row slices
    of flat [Bigarray] int arrays (off the OCaml heap — the GC never
    scans them), fronted by a small per-node overlay of sorted
    add/tombstone lists that absorbs edge insertions and deletions.
    Overlay invariants:

    - [add ∩ base = ∅] — an overlay-add is never also a base entry;
    - [del ⊆ base] — a tombstone always names a live base entry.

    Sorted iteration is a merge of the base row with the add list,
    skipping tombstones — sorted by construction, with no per-call sort.
    The overlay recompacts into fresh base arrays ([O(n + m)]) when it
    exceeds [max 64 (n_edges/8)] live entries, and on explicit
    {!compact}.

    The store keeps a fingerprint of its contents up to date in O(1) per
    node or effective edge update; see {!fingerprint}.

    Engines do not use this module directly: {!Digraph} includes it and
    adds the batch vocabulary and whole-graph walks. [nodes_with_label]
    lists the most recently added node first, and every accessor raises
    [invalid_arg] on an unknown node. *)

type node = int
type label = Interner.symbol

type update = Insert of node * node | Delete of node * node

type t

val create : ?hint:int -> unit -> t
(** Empty graph; [hint] pre-sizes the label, degree and overlay tables
    for [hint] nodes. *)

val copy : t -> t
(** O(n): shares the frozen base arrays (compaction installs fresh ones,
    never mutates in place), deep-copies the overlay — the copy is fully
    independent, pending deltas included. *)

val add_node : t -> string -> node
val add_node_sym : t -> label -> node
val add_edge : t -> node -> node -> bool
val remove_edge : t -> node -> node -> bool

val compact : t -> unit
(** Fold the overlay into fresh base arrays; semantically a no-op. *)

val fingerprint : t -> string
(** O(1). Two 63-bit lanes as 32 hex characters, then [-n_nodes-n_edges].
    Each lane is the wrapping sum of a mixed term per node (its id and
    label name) and per edge, maintained by {!add_node_sym}, {!add_edge}
    and {!remove_edge}; equal graphs have equal fingerprints whatever
    their history, overlay state or interner. *)

val fingerprint_after : t -> update list -> string
(** The fingerprint [t] would have after applying the updates, computed
    without touching [t]. Precondition: each update is effective in order
    (an insert of an absent edge, a delete of a present one). *)

val interner : t -> Interner.t
val intern_label : t -> string -> label
val label : t -> node -> label
val label_name : t -> node -> string
val n_nodes : t -> int
val n_edges : t -> int
val mem_node : t -> node -> bool
val mem_edge : t -> node -> node -> bool
val out_degree : t -> node -> int
val in_degree : t -> node -> int
val iter_succ_sorted : (node -> unit) -> t -> node -> unit
val iter_pred_sorted : (node -> unit) -> t -> node -> unit
val succ_list : t -> node -> node list
val pred_list : t -> node -> node list
val nodes_with_label : t -> label -> node list

val overlay_size : t -> int
(** Live overlay entries (adds + tombstones, both directions); 0 right
    after {!compact}. *)

val overlay_add_size : t -> int
(** Live entries in the two add overlays. *)

val overlay_del_size : t -> int
(** Live tombstones in the two del overlays. *)

val base_nodes : t -> int
(** Nodes covered by the frozen base arrays — how stale the base is. *)

val instrument : obs:Ig_obs.Obs.t -> trace:Ig_obs.Tracer.t -> t -> unit
(** Attach instrumentation sinks: overlay add/del sizes become gauges,
    compactions record latency and bytes-copied histograms plus a
    [Compaction] trace event. Default is noop/noop (a single branch per
    probe); {!copy} resets the copy's sinks to noop so scratch and
    oracle copies never pollute the engine's registry. *)
