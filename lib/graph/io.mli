(** Plain-text graph serialization.

    Line-oriented format, one record per line:
    - [# ...] comment (ignored)
    - [v <id> <label>] node declaration
    - [e <u> <v>] edge declaration (endpoints must be declared first)

    External ids may be arbitrary non-negative integers; they are remapped to
    the dense internal ids on load. The readers compact the graph they
    build, so a load hands back flat base arrays with an empty overlay. *)

val to_string : Digraph.t -> string
(** The canonical text: a [# incgraph v1: N nodes M edges] header, nodes
    in id order, edges in lexicographic order. *)

val write : Format.formatter -> Digraph.t -> unit
(** Prints {!to_string}. *)

val save : string -> Digraph.t -> unit
(** Write to a file path. *)

val read : in_channel -> Digraph.t
(** @raise Failure on malformed input, with a line number. *)

val load : string -> Digraph.t

val of_string : string -> Digraph.t
(** Parse from an in-memory string (used by tests). *)
