(** Deterministic inference backend — the LLM substitute.

    Interface-compatible with the paper's two-phase inference (Listing 1):
    a ticket bundle in, JSON-shaped structured semantics out.  Internally
    it performs the same analysis the prompt asks the model to walk
    through: structural diff → added guards → contracts; lock-scope diff →
    lock-discipline rules; the discussion's first sentence as the
    high-level semantics.  A seeded noise model reintroduces the LLM
    failure modes of §5 for the reliability experiments. *)

type inferred = {
  inf_ticket : string;
  inf_high_level : string;
  inf_rules : Semantics.Rule.t list;
  inf_reasoning : string list;
}

(** Per-rule corruption probability with a deterministic seeded generator;
    corrupted rules get a [.weak]/[.flip]/[.ghost] id suffix. *)
type noise = { epsilon : float; seed : int }

val no_noise : noise

(** The degraded answer of an unavailable oracle: no rules, the reason
    recorded in [inf_reasoning].  Also emitted on the resilience event
    bus. *)
val degraded_inference : Ticket.t -> string -> inferred

(** Run inference on one ticket; deterministic for a fixed [noise], and
    it never raises. *)
val infer : ?noise:noise -> Ticket.t -> inferred

(** Pluggable client type: a real LLM backend maps the same ticket bundle
    to the same structured output.  A client may raise — an outage or a
    malformed answer; the learning pipeline retries it, then degrades. *)
type client = Ticket.t -> inferred

(** [infer] with no noise. *)
val default_client : client

(** Render an inference in the exact output format of Listing 1. *)
val to_json : inferred -> string
