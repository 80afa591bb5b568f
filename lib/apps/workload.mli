(** Common interface of the four instrumented mini-applications.

    Each mini-app reproduces the memory-object population and access
    structure the paper reports for its namesake production code
    (§VI–VII), scaled down so a ten-iteration run takes seconds.  All
    reported quantities are ratios and percentages, which survive the
    scaling. *)

module type APP = sig
  val name : string

  val description : string
  (** One-line description (Table I's "Description" column). *)

  val input_description : string
  (** Table I's "Input problem size" column (the scaled-down analogue). *)

  val paper_footprint_mb : float
  (** Footprint per task the paper reports (Table I), for reference. *)

  val run : ?scale:float -> Nvsc_appkit.Ctx.t -> iterations:int -> unit
  (** Execute pre-computation, [iterations] main-loop iterations, and
      post-processing against the given context.  [scale] (default 1.0)
      multiplies data-structure sizes; use < 1 for quick tests. *)
end

(** {1 Instrumented helpers shared by the apps} *)

val read_every : Nvsc_appkit.Farray.t -> stride:int -> unit
(** Read elements [0, stride, 2*stride, ...] — throttled sweeps over large,
    rarely-consulted structures. *)

val saxpy :
  Nvsc_appkit.Ctx.t ->
  alpha:float ->
  x:Nvsc_appkit.Farray.t ->
  y:Nvsc_appkit.Farray.t ->
  unit
(** [y <- alpha*x + y], fully instrumented, with flop accounting. *)

val dot : Nvsc_appkit.Ctx.t -> Nvsc_appkit.Farray.t -> Nvsc_appkit.Farray.t -> float
(** Instrumented dot product with flop accounting. *)

val scaled : float -> int -> int
(** [scaled s n] is [max 1 (round (s * n))] — data sizing under [scale]. *)
