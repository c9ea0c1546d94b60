(** Spelling-mistake error generator (paper §2.1 and §4.1).

    Five submodels of one-letter typos, each grounded in the
    typographical-error taxonomy of van Berkel & De Smedt:

    - omission: one character is missing
    - insertion: a spurious character appears, produced by a key adjacent
      to one of the word's characters
    - substitution: a character is replaced by one from an adjacent key
      pressed with the same modifiers
    - case alteration: the case of a letter flips (Shift miscoordination)
    - transposition: two adjacent characters swap

    Mutations are enumerated exhaustively ({!variants}) or sampled
    ({!sampler}, {!random_variant}); both go through the same enumerator
    of the typo space.  The plugin entry points instantiate the abstract
    modify template over directive names or values. *)

type kind = Omission | Insertion | Substitution | Case_alteration | Transposition

val all_kinds : kind list

val kind_name : kind -> string

val variants :
  ?layout:Keyboard.Layout.t -> ?include_doubling:bool -> kind -> string ->
  (string * string) list
(** [variants kind word] enumerates every distinct one-letter typo of
    that kind, with a description each.  The original word is never among
    the results; the list is empty when the word is too short or the
    layout cannot produce the needed neighbours.  [include_doubling]
    (default false, beyond the paper's model) adds same-key doubling to
    the insertion submodel. *)

val random_variant :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> kind -> string ->
  (string * string) option
(** One uniformly-chosen variant of that kind, if any exists. *)

val sampler :
  ?layout:Keyboard.Layout.t -> unit -> Conferr_util.Rng.t -> string ->
  (string * string) option
(** [sampler () rng word] draws one variant uniformly from the union of
    all kinds' variants of [word], described as ["<kind>: <what>"] —
    kinds with more concrete slips are proportionally likelier, as when
    sampling the typo space itself.

    {b Scope.} [sampler ()] makes a fresh table that holds each word's
    typo pool from its first draw on, so repeated draws for the same
    word cost one array index.  Create one sampler per generation call
    and let it go with the call: the table grows with every distinct
    word and is not safe to share between threads or domains.

    {b RNG contract.} Each draw consumes exactly what
    [Rng.pick_opt rng pool] would on the pool as a list: one
    [Rng.int rng (pool length)] when the pool is non-empty, nothing when
    it is empty.  The pool is the concatenation, in {!all_kinds} order,
    of each kind's {!variants}, so results and RNG state after a draw do
    not depend on what the sampler drew before. *)

val random_any :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> string -> (string * string) option
(** One draw from a fresh {!sampler}: the same result and RNG state as
    [sampler ?layout () rng word]. *)

val random_kind_first :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> string -> (string * string) option
(** One variant of a uniformly-chosen non-empty kind: every submodel is
    equally represented. *)

val uniform_substitutions :
  ?layout:Keyboard.Layout.t -> string -> (string * string) list
(** Ablation model: one-character substitutions drawn from the {e whole}
    layout rather than the adjacent keys — what a keyboard-oblivious
    fuzzer would inject.  Used to quantify how much the keyboard model
    changes resilience estimates. *)

(** {1 Plugin entry points} *)

type part = Name | Value

val scenarios :
  ?layout:Keyboard.Layout.t ->
  class_prefix:string ->
  part:part ->
  kinds:kind list ->
  Template.target ->
  Conftree.Config_set.t ->
  Scenario.t list
(** Exhaustive: every typo of the given kinds in the chosen part of every
    directive matched by the target.  Only directives are mutated; for
    [part = Value] only directives that have a value. *)

val wordview_scenarios :
  ?layout:Keyboard.Layout.t ->
  class_prefix:string ->
  word_type:string ->
  kinds:kind list ->
  file:string ->
  Conftree.Config_set.t ->
  Scenario.t list
(** The paper's two-stage pipeline (§3.2): exhaustive typos generated on
    the {!Wordview} token representation ([word_type] is
    ["directive-name"], ["directive-value"] or ["section-name"]) and
    mapped back through the stored references.  Equivalent to
    {!scenarios} on the corresponding part. *)

val sampled_scenarios :
  ?layout:Keyboard.Layout.t ->
  rng:Conferr_util.Rng.t ->
  per_target:int ->
  class_prefix:string ->
  part:part ->
  Template.target ->
  Conftree.Config_set.t ->
  Scenario.t list
(** The paper's §5.2 faultload shape: for each matched directive, draw
    [per_target] random typos (random kind, random position). *)

(** {1 Reverse mode (doc/repair.md)}

    Repair synthesis runs the typo model backwards: given a word the
    SUT's vocabulary does not know, which vocabulary words could a
    one-letter slip have produced it from? *)

val corrections :
  ?layout:Keyboard.Layout.t -> ?max_distance:int -> vocabulary:string list ->
  string -> (string * int) list
(** [corrections ~vocabulary word] ranks the vocabulary words [word]
    plausibly resulted from, closest first.  A vocabulary word whose
    forward typo model ({!variants}, any kind) produces [word] exactly
    is ranked by its true Damerau-Levenshtein distance but always ahead
    of words merely within [max_distance] (default 2) that no single
    modelled slip explains; ties break lexicographically.  [word]
    itself is never returned. *)
