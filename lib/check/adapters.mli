(** The engine registry: the one place a query class becomes an engine.

    Each query pairs an incremental engine with its batch counterpart:

    - KWS: {!Ig_kws.Inc_kws} vs the kdist BFS of {!Ig_kws.Batch};
    - RPQ: {!Ig_rpq.Inc_rpq} vs the NFA-product BFS of {!Ig_rpq.Batch};
    - SCC: {!Ig_scc.Inc_scc} in its default configuration vs a fresh
      {!Ig_scc.Tarjan} run;
    - Sim: {!Ig_sim.Inc_sim} vs the {!Ig_sim.Sim} fixpoint;
    - ISO: {!Ig_iso.Inc_iso} vs a fresh {!Ig_iso.Vf2} enumeration.

    A query is written on the command line (and in journal headers) as a
    class name, a hop bound and positional arguments; {!of_args} parses
    that form and {!to_args} prints it back. *)

type query =
  | Kws of Ig_kws.Batch.query
  | Rpq of Ig_nfa.Regex.t
  | Scc
  | Sim of Ig_iso.Pattern.t
  | Iso of Ig_iso.Pattern.t

val make : ?trace:Ig_obs.Tracer.t -> query -> Ig_graph.Digraph.t -> Oracle.t
(** Build the engine over a {e copy} of the graph (the engine owns its
    copy), so one base graph can seed any number of oracles — which is
    exactly what replay-based shrinking needs. The engine reports into a
    fresh live metrics registry ({!Oracle.check_metrics} validates it);
    [trace] defaults to a fresh live tracer. *)

val of_kws : Ig_kws.Inc_kws.t -> Oracle.t
(** Wrap an already-built KWS engine {e without} copying — the hook tests
    use to corrupt a certificate entry before handing the engine over. *)

val client : Oracle.t -> Ig_journal.Store.client
(** The oracle as a journal-store client: effective ops re-enter the
    engine as unit updates, so the journal sees exactly what the engine
    applied; snapshots carry the canonical answer digest and the
    certificate dump. *)

(** {1 Command-line form} *)

val of_args :
  cls:string -> bound:int -> args:string list -> (query, string) result
(** [cls] is one of kws, rpq, scc, sim, iso. kws takes keywords (and
    [bound]), rpq one regex, scc nothing, sim/iso pattern labels in node
    order followed by edges [u-v] ([l1 l2 l3 0-1 1-2 2-0]). Malformed
    regexes and patterns are [Error]s. *)

val to_args : query -> string * int * string list
(** [(cls, bound, args)] such that {!of_args} rebuilds an equal query;
    [bound] is 0 except for kws. *)

val header : query -> Ig_graph.Digraph.t -> Ig_journal.Record.header
(** The journal header of a session over this base graph: {!to_args} plus
    the base graph's digest. *)

type names = {
  engine : string;  (** the incremental engine ("IncKWS", …) *)
  baseline : string;  (** its batch counterpart ("BLINKS", …) *)
  items : string;  (** what the answer is made of ("roots", …) *)
}

val names : query -> names

(** {1 Batch algorithms}

    The batch answer is kept apart from its canonical form so callers can
    time the batch algorithm alone. *)

type batch_answer =
  | Nodes of int list
  | Pairs of (int * int) list
  | Comps of int list list
  | Maps of Ig_iso.Pattern.t * Ig_iso.Vf2.mapping list
  | Relation of Ig_sim.Sim.relation

val batch :
  query -> Ig_graph.Digraph.t -> Ig_graph.Digraph.t -> batch_answer
(** [batch q g] prepares [q] against [g]'s labels (RPQ compiles its
    automaton here); the result runs BLINKS / RPQNFA / Tarjan / SimFix /
    VF2 on [g] or on any copy of it, so a caller can time the run alone.
    [batch q g g] is the whole batch computation. *)

val canon : batch_answer -> string

val summary : batch_answer -> string
(** One line for humans: ["12 match roots"], ["3 components (largest
    9)"], … *)

(** {1 Canonical forms}

    Exposed so hand-rolled test oracles (e.g. deliberately buggy engines in
    mutation tests) print answers the same way the registry does. *)

val canon_nodes : int list -> string
val canon_pairs : (int * int) list -> string
val canon_comps : int list list -> string
val canon_mappings : Ig_iso.Pattern.t -> Ig_iso.Vf2.mapping list -> string
