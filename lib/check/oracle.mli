(** Differential-testing oracles (the correctness backbone of the library).

    The paper's guarantees are {e equivalence} claims: after any sequence of
    edge insertions and deletions, an incremental engine must report exactly
    the answer its batch counterpart computes from scratch on the updated
    graph. An oracle packages one engine together with that batch
    recomputation behind a uniform face — a record of closures over the
    engine — so a single driver ({!Harness}) can cross-check all five query
    classes under random update streams. {!Adapters} builds one for any
    query.

    Answers are compared through a canonical string form: adapters sort and
    print their answer sets, so equality is plain string equality and a
    mismatch is immediately printable in a failure report. *)

type t = {
  name : string;  (** short identifier used in reports ("kws", "scc", …) *)
  graph : Ig_graph.Digraph.t;
      (** the live graph the engine owns and maintains; callers keep their
          own pristine copy *)
  apply : Ig_graph.Digraph.update -> unit;
      (** apply one unit update incrementally (graph and auxiliary data) *)
  apply_batch : Ig_graph.Digraph.update list -> int * int;
      (** apply ΔG through the engine's batch entry point; returns the ΔO
          sizes [(added, removed)] *)
  size : unit -> int;  (** |Q(G)|: the number of items in the answer *)
  answer : unit -> string;  (** the engine's current answer, canonicalized *)
  recompute : unit -> string;
      (** the batch algorithm's answer on the current graph, canonicalized;
          equals {!answer} whenever the engine is correct *)
  check_invariants : unit -> unit;
      (** the engine's own auxiliary-structure validation (kdist lists,
          pmark entries, num/lowlink + ranks, counters). @raise Failure on
          violation *)
  obs : Ig_obs.Obs.t;
      (** the engine's metrics sink, validated by {!check_metrics} *)
  trace : Ig_obs.Tracer.t;
      (** the engine's event tracer; failure reports attach the event log
          of the failing step ({!Harness.failure.trace}) when it is live *)
  cert_snapshot : unit -> (string * string) list;
      (** the engine's certificate dump (named canonical-text sections),
          feeding the durable journal's snapshots *)
}

exception Check_failed of string
(** Raised by {!check} and {!check_metrics} with a human-readable
    explanation. *)

val check : t -> unit
(** The full per-step validation: [check_invariants], then compare
    [answer] against [recompute]. @raise Check_failed on any violation. *)

val check_metrics : prev:(string * int) list -> t -> (string * int) list
(** Validate the metrics invariants after a step: counters never decrease
    (relative to the [prev] snapshot), every span opened during the step
    was closed, and every latency/GC histogram the engine recorded
    satisfies {!Ig_obs.Histogram.check_invariants} (bucket totals equal
    the sample count, min ≤ max, sum within [count·min, count·max]).
    Returns the current counter snapshot, to be threaded as [prev] into
    the next call. @raise Check_failed on violation. *)
