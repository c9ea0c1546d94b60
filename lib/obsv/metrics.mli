(** Campaign metrics registry (doc/obsv.md).

    One registry per campaign collects counters, gauges and
    log-bucketed histograms, each optionally labeled (by convention:
    [sut], [class], [outcome], [phase]…).  The registry is
    mutex-protected and shared freely across worker domains; a metric
    springs into existence on first use, or can be {!declare}d up front
    to attach a help string.

    The snapshot is exported in the Prometheus text exposition format
    ({!expose}), deterministically ordered (sorted by metric name, then
    by label set) so two identical campaigns produce byte-identical
    snapshots whenever their measured values agree.  {!parse_exposition}
    reads the same format back; [parse_exposition (expose t)] yields
    exactly [samples t]. *)

type t

type kind = Counter | Gauge | Histogram

val create : unit -> t

val declare : ?help:string -> ?buckets:float list -> t -> kind -> string -> unit
(** Register a metric family up front.  [help] becomes the [# HELP]
    line; [buckets] (histograms only) are the upper bounds of the
    finite buckets, strictly increasing — default
    {!default_ms_buckets}.  Re-declaring an existing family with a
    different kind raises [Invalid_argument]; re-declaring with the
    same kind just updates the help string. *)

val default_ms_buckets : float list
(** The log-2 millisecond ladder used for duration histograms:
    [0.001, 0.002, 0.004, …, 16777.216] — 1 us to 16.8 s in 25 buckets
    (a [+Inf] bucket is implicit). *)

val inc : ?by:float -> ?labels:(string * string) list -> t -> string -> unit
(** Increment a counter (auto-declared on first use).  [by] defaults
    to 1 and must be non-negative. *)

val set : ?labels:(string * string) list -> t -> string -> float -> unit
(** Set a gauge (auto-declared on first use). *)

val observe : ?labels:(string * string) list -> t -> string -> float -> unit
(** Record one histogram observation (auto-declared on first use with
    {!default_ms_buckets}). *)

val value : ?labels:(string * string) list -> t -> string -> float option
(** Current value of one counter/gauge cell; [None] if the cell does
    not exist (or names a histogram). *)

val family : t -> string -> ((string * string) list * float) list
(** Every (label set, value) cell of one counter/gauge family, sorted
    by label set — deterministic.  Empty for unknown families and for
    histograms. *)

type sample = {
  sample_name : string;
  labels : (string * string) list;  (** sorted by label name *)
  value : float;
}

val samples : t -> sample list
(** The flattened snapshot, in exposition order.  A histogram family
    expands Prometheus-style into cumulative [name_bucket{le="…"}]
    samples plus [name_sum] and [name_count]. *)

val expose : t -> string
(** Prometheus text exposition format, with [# HELP]/[# TYPE] headers. *)

val write_file : t -> string -> unit
(** [expose] into a file (truncating). *)

val parse_exposition : string -> (sample list, string) result
(** Parse the text exposition format back into samples (comment and
    blank lines are skipped).  Inverse of {!expose} up to histogram
    structure: the round-trip returns exactly {!samples}. *)
