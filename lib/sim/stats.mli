(** Measurement utilities for experiments.

    Log-bucketed latency histograms with percentile queries
    (HdrHistogram-style) and fairness metrics. *)

module Histogram : sig
  type t
  (** Records non-negative integer samples (typically picoseconds or
      cycles) in logarithmic buckets with 64 sub-buckets per octave,
      bounding relative quantile error below ~1.6%. *)

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int

  val min_opt : t -> int option
  (** Smallest recorded sample; [None] on an empty histogram. *)

  val max_opt : t -> int option
  (** Largest recorded sample; [None] on an empty histogram. *)

  val percentile_opt : t -> float -> int option
  (** [percentile_opt h p] for [p] in [0, 100]; [None] on an empty
      histogram. p0 reports the lowest-ranked sample (the observed
      minimum, up to bucket resolution) and p100 the observed
      maximum. *)

  val min : t -> int
  (** Like {!min_opt}, but an empty histogram reads as 0. Prefer
      {!min_opt} where "no samples" and "a sample of 0" must not be
      conflated (e.g. anything user-reported). *)

  val max : t -> int
  (** Like {!max_opt}, but an empty histogram reads as 0. *)

  val mean : t -> float

  val percentile : t -> float -> int
  (** Like {!percentile_opt}, but an empty histogram reads as 0.
      Prefer {!percentile_opt} in reporting code: a silent 0 here has
      masked empty measurement windows before. *)

  val merge : t -> t -> unit
  (** [merge dst src] adds all of [src]'s samples into [dst]. *)

  val reset : t -> unit
end

val jain_fairness : float array -> float
(** Jain's fairness index: [(sum x)^2 / (n * sum x^2)]. 1.0 is
    perfectly fair; 1/n is maximally unfair. Returns 1.0 for empty or
    all-zero input. *)

val mean : float array -> float
val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted a p] with [a] sorted ascending, [p] in
    [0, 100], using linear interpolation. *)
